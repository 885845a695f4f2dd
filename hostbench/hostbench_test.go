package main

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"flatflash/internal/experiments"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"math.Pow", "flatflash/internal/workload.zeta", "flatflash/internal/workload.NewZipf", "main.main"}, "workload"},
		{[]string{"flatflash/internal/trace.Generate", "main.setupDeviceRead"}, "workload"},
		{[]string{"runtime.memmove", "flatflash/internal/flash.(*Device).Read", "flatflash/internal/ftl.(*FTL).Read", "flatflash/internal/core.(*FlatFlash).accessFor"}, "flash"},
		{[]string{"runtime.mallocgc", "flatflash/internal/core.(*FlatFlash).accessFor.func1"}, "core"},
		{[]string{"flatflash/internal/core.sortedFrames[...]"}, "core"},
		{[]string{"flatflash/internal/mapcache.(*Cache).Lookup", "flatflash/internal/ftl.(*FTL).Write"}, "mapcache"},
		{[]string{"flatflash/internal/txdb.(*DB).Commit", "flatflash/internal/experiments.Fig14"}, "apps"},
		{[]string{"flatflash/internal/gups.Run"}, "apps"},
		{[]string{"flatflash/internal/psim.(*Engine).Run", "flatflash/internal/fleet.Run"}, "psim"},
		{[]string{"flatflash/internal/mtsim.(*Server).Arrive", "flatflash/internal/fleet.Run"}, "mtsim"},
		{[]string{"sort.Slice", "flatflash/internal/stats.(*Counters).Snapshot"}, "stats"},
		{[]string{"flatflash/internal/analyzers/cfg.Build"}, "other"},
		{[]string{"flatflash/internal/fault.(*Engine).Fire"}, "other"},
		{[]string{"time.Now", "main.(*tracer).now", "main.(*timedHierarchy).Read", "flatflash/internal/trace.replay"}, "bench"},
		{[]string{"flatflash/hostbench.spin"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mcall", "runtime.schedule"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

var spinSink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += float64(i) * 1.0000001
		}
	}
}

// TestProfileFold decodes a real CPU profile of the test binary and folds
// its samples: a busy loop in this package lands in the bench layer.
func TestProfileFold(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	var p profileFold
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	m := map[string]metric{}
	p.report(m)
	if m["cpu_samples"].Value < 1 {
		t.Fatalf("no samples in a 400ms busy profile")
	}
	if m["cpu_share.bench"].Value <= 50 {
		t.Errorf("busy loop share = %.1f%%, want most of the profile", m["cpu_share.bench"].Value)
	}
	var sum float64
	for _, l := range layers {
		sum += m["cpu_share."+l].Value
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decodeProfile accepted garbage")
	}
}

// TestMutatedReportFails checks that a report differing from the reference
// by one byte fails every operation of the run, as do rounds of one run that
// disagree with each other and output with no reference to check it against.
func TestMutatedReportFails(t *testing.T) {
	var report bytes.Buffer
	if err := experiments.Run(&report, "table2", experiments.Quick); err != nil {
		t.Fatal(err)
	}
	good := digestBytes(report.Bytes())
	mutated := bytes.Clone(report.Bytes())
	mutated[len(mutated)/2] ^= 1
	refs := references{"paper-suite": {"*": good}, "device-read": {"1": good}}
	round := func(digest string) roundStats {
		return roundStats{outcome: outcome{ops: 19, digest: digest}}
	}
	for _, tc := range []struct {
		name   string
		wl     string
		seed   uint64
		rounds []roundStats
		failed int64
	}{
		{"matching report", "paper-suite", 7, []roundStats{round(good)}, 0},
		{"mutated report", "paper-suite", 7, []roundStats{round(digestBytes(mutated))}, 19},
		{"mutated round among good ones", "paper-suite", 7, []roundStats{round(good), round(digestBytes(mutated))}, 38},
		{"input set without a reference", "device-read", 2, []roundStats{round(good)}, 19},
		{"workload without a reference", "fleet-openloop", 1, []roundStats{round(good)}, 19},
		{"seeded reference mismatch", "device-read", 1, []roundStats{round(digestBytes(mutated))}, 19},
		{"rounds disagree without a reference", "device-read", 2, []roundStats{round("a"), round("b")}, 38},
	} {
		_, failed := settle(tc.wl, tc.seed, tc.rounds, refs)
		if failed != tc.failed {
			t.Errorf("%s: failed = %d, want %d", tc.name, failed, tc.failed)
		}
	}
}

// TestEverySeedIsChecked checks that any seed picks an input set for which
// reference.json holds a digest of every workload.
func TestEverySeedIsChecked(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{0, 1, 7, 10, 11, 20, 12345, ^uint64(0)} {
		input := inputSeed(seed)
		if input < 1 || input > inputSets {
			t.Fatalf("inputSeed(%d) = %d, want 1-%d", seed, input, inputSets)
		}
		for _, w := range workloads {
			if _, ok := refs[w.name]["*"]; ok {
				continue
			}
			if _, ok := refs[w.name][strconv.FormatUint(input, 10)]; !ok {
				t.Errorf("%s: seed %d runs input set %d, which has no reference", w.name, seed, input)
			}
		}
	}
	for seed := uint64(1); seed <= inputSets; seed++ {
		if inputSeed(seed) != seed {
			t.Errorf("inputSeed(%d) = %d, want the seed itself", seed, inputSeed(seed))
		}
	}
}

type brokenDevice struct{}

func (brokenDevice) CheckInvariants() error { return errors.New("lpn 3 mapped twice") }

func TestFailingInvariantFails(t *testing.T) {
	o := outcome{ops: 1000}
	failIfBroken(&o, brokenDevice{})
	if o.failed != o.ops {
		t.Fatalf("failed = %d after a failing invariant, want all %d", o.failed, o.ops)
	}
}

// TestLostPersistedWriteFails runs a small device-write round whose recovery
// is sabotaged to drop the battery-backed write buffer: the read-back after
// Crash and Recover must count the lost persisted writes. The same round
// with intact recovery must pass.
func TestLostPersistedWriteFails(t *testing.T) {
	for _, broken := range []bool{false, true} {
		j, ff, err := deviceWriteJob(3000, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		ff.BreakRecoveryForTesting(broken)
		if err := j.run(); err != nil {
			t.Fatal(err)
		}
		o := j.check()
		if broken && o.failed == 0 {
			t.Errorf("sabotaged recovery: no lost writes detected in %d operations", o.ops)
		}
		if !broken && o.failed != 0 {
			t.Errorf("intact recovery: %d of %d operations failed", o.failed, o.ops)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// noisy spreads base by ±30%, wider than any bound below.
	noisy := []float64{7, 13, 8, 12, 10, 9, 11, 7.5, 12.5, 10}
	for _, tc := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"faster on every pair", base, scaled(base, 0.9), true, 0.05, verdictGain},
		{"identical runs", base, base, true, 0.05, verdictNoChange},
		{"slower within the bound", base, scaled(base, 1.02), true, 0.05, verdictNoChange},
		{"slower beyond the bound", base, scaled(base, 1.2), true, 0.05, verdictRegression},
		{"spread wider than the bound", noisy, scaled(noisy, 1.03), true, 0.05, verdictUnresolved},
		{"higher is better, head higher", base, scaled(base, 1.1), false, 0.05, verdictGain},
		{"higher is better, head lower", base, scaled(base, 0.8), false, 0.05, verdictRegression},
		{"wins most pairs but inside the noise", base, []float64{9.99, 10.09, 9.89, 10.19, 9.79, 9.99, 10.09, 9.89, 10.04, 9.96}, true, 0.05, verdictNoChange},
		{"no runs", nil, nil, true, 0.05, verdictUnresolved},
		{"faster on every pair, but only five pairs", base[:5], scaled(base[:5], 0.9), true, 0.05, verdictUnresolved},
	} {
		if got := verdict(tc.base, tc.head, tc.lowerBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	spec := &benchSpec{}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"device-read"})
	run := func(cpu string, wall float64) savedRun {
		return savedRun{
			info: runInfo{Workload: "device-read", Fingerprint: fingerprint{CPU: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}},
			res:  result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {wall, "s"}}},
		}
	}
	base := []savedRun{run("cpu A", 1.0)}
	head := []savedRun{run("cpu B", 0.9)}
	var out strings.Builder
	if err := compareRuns(&out, spec, base, head, false); err == nil {
		t.Fatal("compared runs from different machines without -force")
	}
	if err := compareRuns(&out, spec, base, head, true); err != nil {
		t.Fatalf("forced compare: %v", err)
	}
	// The revision is not part of the machine: two commits on one machine
	// compare.
	head = []savedRun{run("cpu A", 0.9)}
	head[0].info.Fingerprint.Revision = "abc"
	if err := compareRuns(&out, spec, base, head, false); err != nil {
		t.Fatalf("same machine, other revision: %v", err)
	}
}

func TestReadRunsPairsRunAndResultLines(t *testing.T) {
	out := `device-read seed=1 traced=false setup=0.3s wall=1.2s
{"run":{"workload":"device-read","seed":1,"seconds":15,"trace":0,"fingerprint":{"cpu":"x","nproc":2,"gomaxprocs":2,"go":"go1.24.0","revision":"r","dirty":false}}}
{"correct":true,"attempted":10,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}
stray line
{"correct":true,"attempted":10,"failed":0,"metrics":{"wall_s":{"value":9,"unit":"s"}}}
`
	runs, err := readRuns(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].info.Seed != 1 || runs[0].res.Metrics["wall_s"].Value != 1.25 {
		t.Fatalf("readRuns = %+v, want the one run line with its result", runs)
	}
}
