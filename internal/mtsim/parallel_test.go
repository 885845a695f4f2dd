package mtsim

import (
	"bytes"
	"runtime"
	"testing"

	"flatflash/internal/sim"
)

func runReport(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The consolidation engine's parallel mode runs the N solo golden runs and
// the shared run as independent tasks; whatever the worker count and
// GOMAXPROCS, the report must be byte-identical to the sequential loop.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := testConfig(4)
	for i := range cfg.Tenants {
		cfg.Tenants[i].Ops = 600
	}
	seq := runReport(t, cfg)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{2, 4, 8} {
			par := cfg
			par.Parallel = workers
			if got := runReport(t, par); got != seq {
				t.Errorf("GOMAXPROCS=%d workers=%d diverges from sequential:\n--- seq ---\n%s--- par ---\n%s",
					procs, workers, seq, got)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// A single tenant still has two tasks (its solo run plus the shared run), so
// parallel mode must hold even at the degenerate size.
func TestParallelSingleTenant(t *testing.T) {
	cfg := testConfig(1)
	cfg.Tenants[0].Ops = 800
	seq := runReport(t, cfg)
	cfg.Parallel = 4
	if got := runReport(t, cfg); got != seq {
		t.Fatalf("1-tenant parallel run diverges:\n--- seq ---\n%s--- par ---\n%s", seq, got)
	}
}

// Sweep-level composition: Workers spreads grid points, Parallel spreads
// the solo/shared runs inside each point. The report must not care.
func TestSweepParallelComposes(t *testing.T) {
	base := SweepConfig{
		Device:       testDevice(),
		TenantCounts: []int{1, 2, 4},
		MixSpecs:     []string{"zipf", "zipf+uniform"},
		Seeds:        []uint64{1},
		Ops:          200,
		RegionBytes:  128 << 10,
		Think:        sim.Micros(1),
	}
	var reports []string
	for _, mode := range []struct{ workers, parallel int }{{1, 0}, {4, 2}, {2, 4}} {
		cfg := base
		cfg.Workers = mode.workers
		cfg.Parallel = mode.parallel
		res, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Write(&buf); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, buf.String())
	}
	if reports[0] != reports[1] || reports[0] != reports[2] {
		t.Fatalf("sweep reports diverge across (workers,parallel) modes:\n--- seq ---\n%s--- 4x2 ---\n%s--- 2x4 ---\n%s",
			reports[0], reports[1], reports[2])
	}
}
