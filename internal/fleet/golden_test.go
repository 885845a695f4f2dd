package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Golden digests recorded from the sequential loop and the message-passing
// parallel engine that the epoch loop replaced (the two agreed byte for
// byte). The equivalence matrices compare the epoch loop with itself; these
// pin it to what the fleet produced before, at every worker count and
// GOMAXPROCS setting.
const (
	goldenMigration2   = "ca9b60a52d363af284d7eac0df2f7d22f81c10d02fd329703b9d3a256f1a4763"
	goldenMigration4   = "756625ec30360884ae08a17cf7cf39d68dd98608fc92e233cc5db3fa1f0df6d8"
	goldenFlightReport = "0c4746fb42f15924eb90d6f119be76afbbc5d87a1a6cfaed26b6e6080d40bcf7"
	goldenFlightDump   = "9a7155de92d4c1205cee154035f1988e642cabab58a1f426c6736d9195b0a511"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// migration4Config is a 4-shard fleet on the real ring whose small,
// promote-on-first-touch devices saturate their DRAM budgets, so the
// migrator moves pages (344 of them) across many boundaries.
func migration4Config() Config {
	dev := core.DefaultConfig(16<<20, 256<<10)
	dev.Promotion = core.PromoteAlways
	cfg := fleetConfig(4, 400000)
	cfg.Device = &dev
	cfg.Arrivals.RegionBytes = 8 << 20
	cfg.Arrivals.Ops = 12000
	cfg.Server = mtsim.ServerOptions{QueueDepth: 1 << 16}
	cfg.MigrateEpoch = sim.Millisecond
	return cfg
}

// flightConfig is a 4-shard fleet offered far past its capacity with a
// tight SLO: the shards shed, and the shared flight recorder's dump lists
// their shed_onset triggers in arrival order.
func flightConfig() Config {
	cfg := fleetConfig(4, 2e6)
	cfg.Arrivals.Ops = 8000
	cfg.Server.SLO = 100 * sim.Microsecond
	cfg.Server.ShedWait = 0
	cfg.Server.Flight = telemetry.NewFlightRecorder(
		telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	return cfg
}

func TestGoldenDigests(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{0, 2, 4} {
			withGOMAXPROCS(procs, func() {
				for _, tc := range []struct {
					name string
					cfg  Config
					want string
				}{
					{"migration-2shard", migrationConfig(), goldenMigration2},
					{"migration-4shard", migration4Config(), goldenMigration4},
				} {
					tc.cfg.Parallel = workers
					res, err := Run(tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Migrations == 0 {
						t.Fatalf("%s: %d migrations, want some", tc.name, res.Migrations)
					}
					var buf bytes.Buffer
					if err := res.Write(&buf); err != nil {
						t.Fatal(err)
					}
					if got := digest(buf.Bytes()); got != tc.want {
						t.Errorf("%s GOMAXPROCS=%d parallel=%d: report digest %s, want %s\n%s",
							tc.name, procs, workers, got, tc.want, buf.String())
					}
				}

				cfg := flightConfig()
				cfg.Parallel = workers
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Shed() == 0 || cfg.Server.Flight.Triggers() == 0 {
					t.Fatalf("flight fleet shed %d, triggers %d; want both nonzero",
						res.Shed(), cfg.Server.Flight.Triggers())
				}
				var report, dump bytes.Buffer
				if err := res.Write(&report); err != nil {
					t.Fatal(err)
				}
				if err := cfg.Server.Flight.WriteDump(&dump); err != nil {
					t.Fatal(err)
				}
				if got := digest(report.Bytes()); got != goldenFlightReport {
					t.Errorf("flight GOMAXPROCS=%d parallel=%d: report digest %s, want %s\n%s",
						procs, workers, got, goldenFlightReport, report.String())
				}
				if got := digest(dump.Bytes()); got != goldenFlightDump {
					t.Errorf("flight GOMAXPROCS=%d parallel=%d: dump digest %s, want %s",
						procs, workers, got, goldenFlightDump)
				}
			})
		}
	}
}
