package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"

	"flatflash/internal/sim"
)

// Runner produces the reports of one experiment.
type Runner func(Scale) []*Report

// registry maps experiment IDs to runners, in the paper's order.
var registry = []struct {
	id     string
	desc   string
	runner Runner
}{
	{"table2", "Table 2: component latencies", func(Scale) []*Report { return []*Report{Table2()} }},
	{"fig8", "Figure 8: 64B access latency, sequential & random", Fig8},
	{"fig9a", "Figure 9a: HPCC-GUPS performance & page movements", one(Fig9a)},
	{"fig9b", "Figure 9b: sensitivity to SSD-Cache size", one(Fig9b)},
	{"fig10", "Figure 10: graph analytics (PageRank, ConnComp)", Fig10},
	{"fig11", "Figure 11: YCSB tail latency", Fig11},
	{"fig12", "Figure 12: YCSB average latency & hit ratio", Fig12},
	{"fig13", "Figure 13: file-system metadata persistence", one13},
	{"fig14", "Figure 14a-c: database throughput scaling", Fig14},
	{"fig14d", "Figure 14d: device-latency sweep", one(Fig14d)},
	{"fig7", "Figure 7 ablation: centralized vs per-tx logging", one(Fig7Ablation)},
	{"ablations", "Design ablations: promotion, PLB, RRIP, wear-aware GC", Ablations},
	{"capi", "Extension: coherent host caching of MMIO (§3.1)", CAPI},
	{"consolidate", "Extension: server consolidation, multi-tenant slowdown & fairness", one(Consolidate)},
	{"fleet", "Extension: sharded fleet scale-out under open-loop load", one(FleetSweep)},
	{"mapsweep", "Extension: demand-paged translation map, map-cache size sweep", one(MapCacheSweep)},
	{"mapamp", "Extension: demand-paged translation map, zipf-vs-scan miss amplification", one(MapMissAmp)},
	{"table1", "Table 1: summary of improvements", one(Table1)},
	{"table3", "Table 3: cost-effectiveness vs DRAM-only", one(Table3)},
}

func one(f func(Scale) *Report) Runner {
	return func(s Scale) []*Report { return []*Report{f(s)} }
}

func one13(s Scale) []*Report { return []*Report{Fig13(s)} }

// IDs returns all experiment IDs in run order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns a sorted "id: description" list.
func Describe() []string {
	var out []string
	for _, e := range registry {
		out = append(out, fmt.Sprintf("%-8s %s", e.id, e.desc))
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID and prints its reports.
func Run(w io.Writer, id string, scale Scale) error { return RunIDs(w, []string{id}, scale) }

// RunAll executes every experiment in paper order.
func RunAll(w io.Writer, scale Scale) error { return RunIDs(w, IDs(), scale) }

// RunIDs executes the given experiments and prints their reports in the
// order of ids. Every id is checked before any experiment starts, so an
// unknown one prints nothing. The experiments build their own hierarchies
// on their own virtual clocks with their own seeds, so they run on
// GOMAXPROCS workers, each into its own buffer, and the buffers are written
// in order: the bytes do not depend on the worker count. Attached telemetry
// or attribution sinks are single-writer and order-sensitive, so any of
// them forces one worker.
func RunIDs(w io.Writer, ids []string, scale Scale) error {
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		for _, e := range registry {
			if e.id == id {
				runners[i] = e.runner
			}
		}
		if runners[i] == nil {
			return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if telProbe != nil || telReg != nil || attSink != nil || attRec != nil {
		workers = 1
	}
	bufs := make([]bytes.Buffer, len(ids))
	// render never fails; ForEach's error is always nil.
	_ = sim.ForEach(len(ids), workers, func(i int) error {
		render(&bufs[i], runners[i], scale)
		return nil
	})
	for i := range bufs {
		if _, err := bufs[i].WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// render runs one experiment and prints its reports into buf. RunIDs runs
// several at once, so it must stay confined to its arguments.
//
//flatflash:lp
func render(buf *bytes.Buffer, run Runner, scale Scale) {
	for _, rep := range run(scale) {
		rep.Print(buf)
	}
}
