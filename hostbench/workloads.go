package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/experiments"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/trace"
	gen "flatflash/internal/workload"
)

// A workload is one set of inputs the benchmark runs. Every round calls
// setup, times job.run, then calls job.check untimed.
type workload struct {
	name  string
	setup func(seed uint64, tr *tracer) (*job, error)
}

// job is one set-up round of a workload.
type job struct {
	ops   int          // operations the timed phase attempts
	run   func() error // the timed phase
	check func() outcome
}

// outcome is what checking one round found.
type outcome struct {
	ops, failed int
	// digest identifies the simulated output; every round of a run must
	// produce the same one, matching the recorded reference if any.
	digest string
	facts  simFacts
}

// simFacts are the deterministic results of the modelled system that the
// traced run reports: counters, virtual run time and p99 latency.
type simFacts struct {
	counters *stats.Counters
	elapsed  sim.Duration
	p99      sim.Duration
}

// The closed-loop host side: one caller makes one call at a time. Sizes are
// chosen so one round takes under a second on a 2-CPU host, giving a
// 25-second run some thirty rounds to take the median of.
const (
	readOps    = 1_000_000 // device-read: 64 B accesses per round
	writePairs = 125_000   // device-write: write+persist pairs per round
	fleetOps   = 500_000   // fleet-openloop: arrivals per round
)

var workloads = []*workload{
	{name: "paper-suite", setup: setupPaperSuite},
	{name: "device-read", setup: setupDeviceRead},
	{name: "device-write", setup: func(seed uint64, tr *tracer) (*job, error) {
		j, _, err := deviceWriteJob(writePairs, seed, tr)
		return j, err
	}},
	{name: "fleet-openloop", setup: setupFleet},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// setupPaperSuite prepares every registered experiment at Full scale, run in
// registry order exactly as flatflash-bench runs with no arguments. The
// experiments use their own fixed seeds, so the seed does not change the
// inputs. The suite builds its hierarchies inside each experiment, inside
// the timed call, so the benchmark's own set-up is a proxy the suite never
// runs as a phase: one build of each hierarchy kind at the simulator's
// default device, through the constructors every experiment calls.
func setupPaperSuite(_ uint64, tr *tracer) (*job, error) {
	t0 := time.Now()
	cfg := core.DefaultConfig(256<<20, 4<<20)
	builders := []func(core.Config) (core.Hierarchy, error){
		func(c core.Config) (core.Hierarchy, error) { return core.NewFlatFlash(c) },
		core.NewUnifiedMMap,
		core.NewTraditionalStack,
	}
	for _, build := range builders {
		h, err := build(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := h.Mmap(8 << 20); err != nil {
			return nil, err
		}
	}
	tr.span("build", t0)
	// The defaults flatflash-bench applies when given no flags.
	experiments.SetTelemetry(nil, nil)
	experiments.SetAttribution(nil, nil)
	experiments.SetMapCache(0)
	experiments.SetParallel(0)

	ids := experiments.IDs()
	var report bytes.Buffer
	j := &job{ops: len(ids)}
	j.run = func() error {
		if tr == nil {
			return experiments.RunAll(&report, experiments.Full)
		}
		for _, id := range ids {
			t := time.Now()
			if err := experiments.Run(&report, id, experiments.Full); err != nil {
				return err
			}
			tr.span("experiments."+id, t)
		}
		return nil
	}
	j.check = func() outcome {
		o := outcome{ops: j.ops, digest: digestBytes(report.Bytes())}
		if report.Len() == 0 {
			o.failed = o.ops
		}
		return o
	}
	return j, nil
}

// setupDeviceRead prepares one FlatFlash device at the flatflash-sim default
// geometry (256 MB SSD, 4 MB DRAM, in-memory map) with an 8 MB region, 2x
// DRAM and 25x the SSD-Cache, and a Zipfian stream of 64 B accesses with 5%
// writes. The timed phase is trace.Replay, the call flatflash-sim makes.
func setupDeviceRead(seed uint64, tr *tracer) (*job, error) {
	const region = 8 << 20
	t0 := time.Now()
	ops, err := trace.Generate(trace.GenConfig{
		Pattern: trace.Zipfian, Ops: readOps, AccessSize: 64,
		Extent: region, WriteFrac: 0.05, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	tr.span("gen", t0)
	t0 = time.Now()
	ff, err := core.NewFlatFlash(core.DefaultConfig(256<<20, 4<<20))
	if err != nil {
		return nil, err
	}
	r, err := ff.Mmap(region)
	if err != nil {
		return nil, err
	}
	tr.span("build", t0)

	var h core.Hierarchy = ff
	if tr != nil {
		h = &timedHierarchy{Hierarchy: ff, tr: tr}
	}
	var res trace.Result
	j := &job{ops: len(ops)}
	j.run = func() error {
		res, err = trace.Replay(h, r, ops)
		return err
	}
	j.check = func() outcome {
		o := outcome{ops: j.ops}
		c := ff.Counters()
		o.digest = digestOf(func(w io.Writer) {
			writeCounters(w, c)
			writeHist(w, "latency", res.Hist)
			fmt.Fprintf(w, "elapsed %d\n", res.Elapsed)
		})
		o.facts = simFacts{counters: c, elapsed: res.Elapsed, p99: res.Hist.Percentile(99)}
		failIfBroken(&o, ff)
		return o
	}
	return j, nil
}

// deviceWriteJob prepares a small FlatFlash device (32 MB SSD, 1 MB DRAM)
// with the demand-paged map (4 cached translation pages, pipelined) and a
// persistent region covering 75% of logical capacity. Each operation pair is
// a uniform-random 256 B write of a seeded payload followed by Persist, so
// the run exercises GC, translation-page traffic and the persist path. The
// check crashes and recovers the device and reads back every persisted slot;
// recovery must leave the invariants intact.
func deviceWriteJob(pairs int, seed uint64, tr *tracer) (*job, *core.FlatFlash, error) {
	const (
		ssd      = 32 << 20
		slotSize = 256
		payloads = 64
	)
	t0 := time.Now()
	rng := sim.NewRNG(seed)
	nSlots := uint64(ssd*3/4) / slotSize
	slots := make([]uint32, pairs)
	for i := range slots {
		slots[i] = uint32(rng.Uint64n(nSlots))
	}
	tmpl := make([][]byte, payloads)
	for i := range tmpl {
		tmpl[i] = make([]byte, slotSize)
		for k := 0; k < slotSize; k += 8 {
			binary.LittleEndian.PutUint64(tmpl[i][k:], rng.Uint64())
		}
	}
	// payload stamps the pair index into a template, so every write is
	// distinct and a read-back names the write it returned.
	payload := func(buf []byte, i int) {
		copy(buf, tmpl[i%payloads])
		binary.LittleEndian.PutUint64(buf, uint64(i))
	}
	tr.span("gen", t0)

	t0 = time.Now()
	cfg := core.DefaultConfig(ssd, 1<<20)
	cfg.MapCachePages = 4
	cfg.MapPipeline = true
	ff, err := core.NewFlatFlash(cfg)
	if err != nil {
		return nil, nil, err
	}
	r, err := ff.MmapPersistent(nSlots * slotSize)
	if err != nil {
		return nil, nil, err
	}
	tr.span("build", t0)

	last := make([]int32, nSlots) // pair index of each slot's last write, -1 if none
	for i := range last {
		last[i] = -1
	}
	whist, phist := stats.NewHistogram(), stats.NewHistogram()
	j := &job{ops: 2 * pairs}
	j.run = func() error {
		buf := make([]byte, slotSize)
		for i, s := range slots {
			payload(buf, i)
			addr := r.Base + uint64(s)*slotSize
			t := tr.now(callWrite)
			lat, err := ff.Write(addr, buf)
			if err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
			tr.call(callWrite, t)
			whist.Record(lat)
			t = tr.now(callPersist)
			if lat, err = ff.Persist(addr, slotSize); err != nil {
				return fmt.Errorf("persist %d: %w", i, err)
			}
			tr.call(callPersist, t)
			phist.Record(lat)
			last[s] = int32(i)
		}
		return nil
	}
	j.check = func() outcome {
		o := outcome{ops: j.ops}
		c := ff.Counters()
		o.digest = digestOf(func(w io.Writer) {
			writeCounters(w, c)
			writeHist(w, "write", whist)
			writeHist(w, "persist", phist)
			fmt.Fprintf(w, "now %d\n", ff.Now())
		})
		merged := stats.NewHistogram()
		merged.Merge(whist)
		merged.Merge(phist)
		o.facts = simFacts{counters: c, elapsed: ff.Now().Sub(0), p99: merged.Percentile(99)}
		failIfBroken(&o, ff)
		if o.failed == 0 {
			ff.Crash()
			ff.Recover()
			failIfBroken(&o, ff)
		}
		if o.failed > 0 {
			return o
		}
		got, want := make([]byte, slotSize), make([]byte, slotSize)
		for s, i := range last {
			if i < 0 {
				continue
			}
			t := tr.now(callRead)
			_, err := ff.Read(r.Base+uint64(s)*slotSize, got)
			tr.call(callRead, t)
			payload(want, int(i))
			if err != nil || !bytes.Equal(got, want) {
				o.failed++ // the persisted write of pair i was lost
			}
		}
		return o
	}
	return j, ff, nil
}

// setupFleet prepares the sharded fleet exactly as `flatflash-bench fleet`
// runs one grid point: 8 shards at the flatflash-sim device geometry behind
// a consistent-hash ring, open-loop Poisson arrivals with a diurnal term
// (amplitude 0.4, 10 ms period) at 2M ops/s over a 1 MB Zipfian region, a
// 400 µs SLO, and the parallel engine on 2 workers. fleet.Run generates the
// arrivals and builds the shards itself, inside the timed phase; set-up
// generates the same arrival stream once to count it independently, so
// setup_s here is a proxy for the generation fleet.Run repeats.
func setupFleet(seed uint64, tr *tracer) (*job, error) {
	dev := core.DefaultConfig(256<<20, 4<<20)
	cfg := fleet.Config{
		Shards: 8,
		Device: &dev,
		Arrivals: gen.ArrivalConfig{
			MixSpec:       "zipf",
			Rate:          2e6,
			DiurnalAmp:    0.4,
			DiurnalPeriod: 10 * sim.Millisecond,
			Clients:       1 << 20,
			RegionBytes:   1 << 20,
			Ops:           fleetOps,
			Seed:          seed,
		},
		Server: mtsim.ServerOptions{
			IssueOverhead: 300 * sim.Nanosecond,
			SLO:           400 * sim.Microsecond,
			Attrib:        true,
		},
		Parallel: 2,
	}
	t0 := time.Now()
	arrivals, err := gen.NewArrivalGen(cfg.Arrivals)
	if err != nil {
		return nil, err
	}
	var offered int64
	for _, ok := arrivals.Next(); ok; _, ok = arrivals.Next() {
		offered++
	}
	tr.span("gen", t0)

	var res *fleet.Result
	j := &job{ops: int(offered)}
	j.run = func() error {
		res, err = fleet.Run(cfg)
		return err
	}
	j.check = func() outcome {
		o := outcome{ops: j.ops}
		var report bytes.Buffer
		if err := res.Write(&report); err != nil {
			o.failed = o.ops
			return o
		}
		o.digest = digestBytes(report.Bytes())
		c := stats.NewCounters()
		var arrived int64
		for _, s := range res.Shards {
			c.Merge(s.Counters())
			arrived += s.Arrivals()
		}
		o.facts = simFacts{counters: c, elapsed: res.Makespan(), p99: res.Hist().Percentile(99)}
		if arrived != offered || res.Admitted()+res.Shed() != arrived {
			fmt.Fprintf(os.Stderr, "fleet-openloop: offered=%d arrived=%d admitted=%d shed=%d\n",
				offered, arrived, res.Admitted(), res.Shed())
			o.failed = o.ops
		}
		return o
	}
	return j, nil
}

// invariantChecker is the part of a device the checks need; tests substitute
// a device whose invariants fail.
type invariantChecker interface {
	CheckInvariants() error
}

// failIfBroken fails every operation of the round when the device's
// cross-layer invariants do not hold.
func failIfBroken(o *outcome, h invariantChecker) {
	if err := h.CheckInvariants(); err != nil {
		fmt.Fprintf(os.Stderr, "invariants: %v\n", err)
		o.failed = o.ops
	}
}

// timedHierarchy times the calls trace.Replay makes into the hierarchy.
type timedHierarchy struct {
	core.Hierarchy
	tr *tracer
}

func (h *timedHierarchy) Read(addr uint64, buf []byte) (sim.Duration, error) {
	t := h.tr.now(callRead)
	d, err := h.Hierarchy.Read(addr, buf)
	h.tr.call(callRead, t)
	return d, err
}

func (h *timedHierarchy) Write(addr uint64, data []byte) (sim.Duration, error) {
	t := h.tr.now(callWrite)
	d, err := h.Hierarchy.Write(addr, data)
	h.tr.call(callWrite, t)
	return d, err
}

func (h *timedHierarchy) Persist(addr uint64, size int) (sim.Duration, error) {
	t := h.tr.now(callPersist)
	d, err := h.Hierarchy.Persist(addr, size)
	h.tr.call(callPersist, t)
	return d, err
}

func digestOf(render func(io.Writer)) string {
	sum := sha256.New()
	render(sum)
	return hex.EncodeToString(sum.Sum(nil))
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func writeCounters(w io.Writer, c *stats.Counters) {
	for _, kv := range c.Snapshot() {
		fmt.Fprintf(w, "%s %d\n", kv.Name, kv.Value)
	}
}

func writeHist(w io.Writer, name string, h *stats.Histogram) {
	fmt.Fprintf(w, "%s n=%d sum=%d min=%d max=%d p50=%d p90=%d p99=%d p999=%d\n", name,
		h.Count(), h.Sum(), h.Min(), h.Max(), h.Percentile(50), h.Percentile(90),
		h.Percentile(99), h.Percentile(99.9))
}
