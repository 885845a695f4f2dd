// Command hostbench measures what the FlatFlash simulator costs in host time,
// end to end and layer by layer, and checks that every run's simulated output
// is unchanged.
//
// One run measures one workload:
//
//	hostbench --workload device-read --seed 1 --seconds 15 --trace 0
//
// It prints human-readable progress on standard error, then on standard
// output a run line (workload, seed and machine fingerprint) followed by the
// result line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, measured with tracing off; with
// --trace 1 they are the per-layer ones from a CPU profile and timed spans,
// plus the tracing overhead against untraced rounds of the same run.
//
// Subcommands compare saved runs and run same-machine A/B comparisons:
//
//	hostbench compare [-force] BASE.out HEAD.out
//	hostbench ab -base REV -head REV
//	hostbench reference
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "compare":
			err = runCompare(os.Args[2:])
		case "ab":
			err = runAB(os.Args[2:])
		case "reference":
			err = runReference(os.Args[2:])
		default:
			err = runOne(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "hostbench: need --workload, or a subcommand: compare, ab, reference")
	os.Exit(2)
}

// minSetups is how many times a run sets its workload up at least, so that
// setup_s is a median over many set-ups even when a single timed round fills
// the run (paper-suite, whose set-up takes milliseconds).
const minSetups = 15

func runOne(args []string) error {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed: picks one of the recorded input sets (same seed => same inputs)")
	seconds := fs.Float64("seconds", 15, "measure for this long; a run always completes at least one round")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	fp := takeFingerprint()
	input := inputSeed(*seed)
	res := measure(w, input, time.Duration(*seconds*float64(time.Second)), *traced == 1, refs)
	line, err := json.Marshal(runLine{Run: runInfo{Workload: w.name, Seed: *seed, Input: input, Seconds: *seconds, Trace: *traced, Fingerprint: fp}})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runLine precedes every result line, so saved outputs carry what produced
// them and on which machine.
type runLine struct {
	Run runInfo `json:"run"`
}

type runInfo struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Input       uint64      `json:"input"` // the input set the seed picks
	Seconds     float64     `json:"seconds"`
	Trace       int         `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// roundStats is what one timed round measured.
type roundStats struct {
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration
	rt      runtimeDelta
	outcome outcome
}

// measure runs rounds of w until the time budget is spent. Untraced runs
// report the end-to-end metrics. Traced runs alternate untraced and traced
// rounds, so the tracing overhead is measured on the same process and
// inputs, and report the per-layer metrics.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, refs references) result {
	stop := rotateCPUs()
	defer stop()
	start := time.Now()
	var (
		plain, withTrace []roundStats
		setups           []float64 // seconds
		tr               *tracer
		prof             = &profileFold{}
	)
	if traced {
		tr = newTracer()
	}
	for {
		useTrace := traced && len(withTrace) < len(plain)
		var t *tracer
		if useTrace {
			t = tr
		}
		r := runRound(w, seed, t, prof)
		setups = append(setups, r.setup.Seconds())
		if useTrace {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(os.Stderr, "%s seed=%d traced=%v setup=%.4fs wall=%.4fs cpu=%.4fs ops=%d failed=%d\n",
			w.name, seed, useTrace, r.setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.outcome.ops, r.outcome.failed)
		// Start another round only if at least half of it fits the budget,
		// so a run overshoots by at most half a round.
		enough := time.Since(start)+(r.setup+r.wall)/2 >= budget && (!traced || len(withTrace) > 0)
		if enough {
			break
		}
	}
	for !traced && len(setups) < minSetups {
		d, _, err := timedSetup(w, seed, nil)
		if err != nil {
			break // the rounds already recorded the failure
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
	}

	all := append(append([]roundStats{}, plain...), withTrace...)
	attempted, failed := settle(w.name, seed, all, refs)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		res.Metrics["wall_s"] = metric{median(durations(plain, func(r roundStats) time.Duration { return r.wall })), "s"}
		res.Metrics["cpu_s"] = metric{median(durations(plain, func(r roundStats) time.Duration { return r.cpu })), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res
	}
	untracedWall := median(durations(plain, func(r roundStats) time.Duration { return r.wall }))
	tracedWall := median(durations(withTrace, func(r roundStats) time.Duration { return r.wall }))
	res.Metrics["trace_overhead"] = metric{tracedWall/untracedWall - 1, "ratio"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	prof.report(res.Metrics)
	tr.report(res.Metrics)
	reportRuntime(plain, res.Metrics)
	reportFacts(withTrace[len(withTrace)-1].outcome.facts, res.Metrics)
	return res
}

// runRound sets the workload up, runs its timed phase, and checks the
// output. A failed set-up or timed phase fails every operation of the round.
func runRound(w *workload, seed uint64, tr *tracer, prof *profileFold) roundStats {
	var r roundStats
	d, j, err := timedSetup(w, seed, tr)
	r.setup = d
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: set-up: %v\n", w.name, err)
		r.outcome = outcome{ops: 1, failed: 1}
		return r
	}
	runtime.GC() // start every timed phase from a collected heap
	if tr != nil {
		prof.start()
	}
	rt0 := readRuntime()
	cpu0 := processCPU()
	t0 := time.Now()
	err = j.run()
	r.wall = time.Since(t0)
	r.cpu = processCPU() - cpu0
	r.rt = readRuntime().since(rt0)
	if tr != nil {
		prof.stop()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		r.outcome = outcome{ops: j.ops, failed: j.ops}
	} else {
		r.outcome = j.check()
	}
	runtime.GC()
	return r
}

func timedSetup(w *workload, seed uint64, tr *tracer) (time.Duration, *job, error) {
	t0 := time.Now()
	j, err := w.setup(seed, tr)
	return time.Since(t0), j, err
}

// settle totals a run's operations and failures. Every round must produce
// the same output digest, and that digest must match the reference recorded
// for this input set; otherwise every operation of the run counts as
// failed.
func settle(name string, input uint64, rounds []roundStats, refs references) (attempted, failed int64) {
	var digests []string
	for _, r := range rounds {
		attempted += int64(r.outcome.ops)
		failed += int64(r.outcome.failed)
		if r.outcome.digest != "" {
			digests = append(digests, r.outcome.digest)
		}
	}
	if err := refs.check(name, input, digests); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		failed = attempted
	}
	return attempted, failed
}

func durations(rs []roundStats, f func(roundStats) time.Duration) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r).Seconds()
	}
	return out
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
