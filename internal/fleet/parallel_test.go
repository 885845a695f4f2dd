package fleet

import (
	"runtime"
	"testing"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// withGOMAXPROCS runs fn with the scheduler pinned to procs cores and
// restores the previous setting afterwards, so the byte-identity claim is
// checked both with real parallelism and with every worker multiplexed on
// one core.
func withGOMAXPROCS(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// The epoch loop's contract: serving per-shard windows on several workers
// must reproduce the one-worker loop byte for byte, whatever the worker
// count and whatever GOMAXPROCS, on both a migration-free fleet (one window
// for the whole run) and one that rebalances at epoch boundaries.
func TestParallelMatchesSequential(t *testing.T) {
	plain := fleetConfig(4, 500000)
	plain.Arrivals.Ops = 4000
	migr := migrationConfig()
	migr.Arrivals.Ops = 8000
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain-4shard", plain},
		{"migration-2shard", migr},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := fleetReport(t, tc.cfg)
			if tc.name == "migration-2shard" {
				res, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Migrations == 0 {
					t.Fatal("migration case exercises no migrations")
				}
			}
			for _, procs := range []int{1, 4} {
				for _, workers := range []int{2, 4, 8} {
					withGOMAXPROCS(procs, func() {
						cfg := tc.cfg
						cfg.Parallel = workers
						if got := fleetReport(t, cfg); got != seq {
							t.Errorf("GOMAXPROCS=%d workers=%d diverges from sequential:\n--- seq ---\n%s--- par ---\n%s",
								procs, workers, seq, got)
						}
					})
				}
			}
		})
	}
}

// Single-shard fleets and fleets with a shared flight recorder must fall
// back to one worker (and still produce the sequential report).
func TestParallelFallsBackToSequential(t *testing.T) {
	single := fleetConfig(1, 200000)
	single.Arrivals.Ops = 2000
	want := fleetReport(t, single)
	single.Parallel = 4
	if n := single.workers(); n != 1 {
		t.Fatalf("single-shard fleet runs %d workers, want 1", n)
	}
	if got := fleetReport(t, single); got != want {
		t.Fatalf("single-shard parallel run diverges:\n--- seq ---\n%s--- par ---\n%s", want, got)
	}

	flight := fleetConfig(2, 200000)
	flight.Arrivals.Ops = 2000
	flight.Server.Flight = telemetry.NewFlightRecorder(
		telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	flight.Parallel = 4
	if n := flight.workers(); n != 1 {
		t.Fatalf("shared flight recorder runs %d workers, want 1", n)
	}
	if _, err := Run(flight); err != nil {
		t.Fatalf("flight-recorder fallback run failed: %v", err)
	}
}

// Sweep-level composition: Workers spreads grid points across goroutines
// while Parallel spreads shards inside each point; the report must not care.
func TestSweepParallelComposes(t *testing.T) {
	base := sweepConfig(1)
	base.Arrivals.Ops = 1500
	want := sweepReport(t, base)
	par := sweepConfig(2)
	par.Arrivals.Ops = 1500
	par.Parallel = 4
	if got := sweepReport(t, par); got != want {
		t.Fatalf("workers=2 parallel=4 sweep diverges from sequential:\n--- seq ---\n%s--- par ---\n%s", want, got)
	}
}

// Stress: randomized fleet shapes — shard counts, rates, epochs, seeds —
// must stay byte-identical between one worker and several. Run under -race
// this doubles as a data-race hunt over the per-shard windows.
func TestParallelStressRandomShapes(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := sim.NewRNG(97)
	for trial := 0; trial < trials; trial++ {
		cfg := fleetConfig(2+int(rng.Uint64n(4)), 30000+float64(rng.Uint64n(500000)))
		cfg.Arrivals.Ops = 1000 + int(rng.Uint64n(2000))
		cfg.Arrivals.Seed = rng.Uint64()
		if rng.Uint64n(2) == 0 {
			cfg.MigrateEpoch = sim.Duration(300*sim.Microsecond) + sim.Duration(rng.Uint64n(uint64(2*sim.Millisecond)))
			cfg.MigratePages = 4 + int(rng.Uint64n(16))
		}
		seq := fleetReport(t, cfg)
		cfg.Parallel = 2 + int(rng.Uint64n(7))
		if got := fleetReport(t, cfg); got != seq {
			t.Fatalf("trial %d (shards=%d rate=%.0f epoch=%v workers=%d): parallel diverges:\n--- seq ---\n%s--- par ---\n%s",
				trial, cfg.Shards, cfg.Arrivals.Rate, cfg.MigrateEpoch, cfg.Parallel, seq, got)
		}
	}
}
