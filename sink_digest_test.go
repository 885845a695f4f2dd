package flatflash

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/crashsweep"
	"flatflash/internal/experiments"
	"flatflash/internal/fault"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/trace"
)

// sinkDigests pins the sha256 of every telemetry sink's dump for four runs:
// the Chrome trace JSON, the metrics JSONL, the latency-attribution JSONL
// and the flight-recorder dump. Run-vs-run determinism alone cannot catch
// a change to how hooks are wired (which sink sees which span, which
// recorder a trigger reaches); these digests catch it across revisions.
// A change that moves a simulated span, sample or trigger must update them
// on purpose.
var sinkDigests = map[string]string{
	"flatflash/trace":     "a5aafb0c2647fef317b7268e08a3d48a32e7945aa3d91c5a0261f113ad947981",
	"flatflash/metrics":   "1a7c03d524b9de8d212187c9af76875c69915339846816fa6f30b01e4941149e",
	"flatflash/latency":   "67bfd4f2538468941605f7351c256fc4a73a75349d6ca7cce4f79c449cf10941",
	"flatflash/flight":    "bd8dccdfcd602ae84e3702c24255fbaecbee3ad5d68a37b8c3c6b38767951394",
	"baseline/trace":      "76b776d4f2f2e800e3602898942fb8ef62e20716cf70bd34766fc27926fef739",
	"baseline/metrics":    "aa295ca1a1758ea3a23bae79e7917ca2b9f9cc33fcd8d2d252d23db79491813b",
	"experiments/report":  "ccbebc69de8a6382db256b4ce1d789fa1d2a58097cd3786ecccc29271b2545c2",
	"experiments/trace":   "ea32d0aeb4a416a562080a45ef05b72cfff46374428f654b75c81e43dcddd9f6",
	"experiments/metrics": "60ecd30eb69fab78e3858e584a39c0b90d6637607aaf8c8d16a2a019b07868a6",
	"experiments/latency": "a3aa163f2c9a63c698219bc7c3abf6ec80df42352f17565a4679c6d9152f896b",
	"experiments/flight":  "4139daf5aa8e785ad6ba182116396611c4bf173d28436ab0b52f36ad6b79fb92",
	"crashsweep/report":   "79dab1ce6f526297ad63cdc8568c2b8026070e9a8cfbcac8676432d6fb249d4b",
	"crashsweep/flight":   "a322eecc8ec52e77c7aaa080c8afd3465503e4e0e6d8a964a7c23596a24d76f8",
}

// sinks is one run's full set of telemetry sinks.
type sinks struct {
	tracer *telemetry.Tracer
	reg    *telemetry.Registry
	att    *telemetry.Attribution
	flight *telemetry.FlightRecorder
}

func newSinks(slo sim.Duration) sinks {
	flight := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	return sinks{
		tracer: telemetry.NewTracer(telemetry.DefaultTracerCapacity),
		reg:    telemetry.NewRegistry(100 * sim.Microsecond),
		att:    telemetry.NewAttribution(slo, 0, flight),
		flight: flight,
	}
}

// checkDigest compares the sha256 of what write produces against the
// recorded digest for name.
func checkDigest(t *testing.T, name string, write func(io.Writer) error) {
	t.Helper()
	want, ok := sinkDigests[name]
	if !ok {
		t.Fatalf("no recorded digest for %s", name)
	}
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s digest %s, want %s", name, got, want)
	}
}

// replayTrace replays a seeded Zipf trace with 20% writes on h, riding
// through injected crashes.
func replayTrace(t *testing.T, h core.Hierarchy) {
	t.Helper()
	const extent = 4 << 20
	tr, err := trace.Generate(trace.GenConfig{
		Pattern: trace.Zipfian, Ops: 6000, AccessSize: 64, Extent: extent, WriteFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	region, err := h.Mmap(extent)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.ReplayCrashAware(h, region, tr); err != nil {
		t.Fatal(err)
	}
}

// TestSinkDumpDigests pins the bytes every sink writes for a FlatFlash with
// all five hooks and a fault plan, a baseline with a probe and registry,
// two Quick experiments sharing one set of sinks, and a crash sweep with a
// flight recorder.
func TestSinkDumpDigests(t *testing.T) {
	t.Run("flatflash", func(t *testing.T) {
		ff, err := core.NewFlatFlash(core.DefaultConfig(64<<20, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := fault.NewEngine(fault.Plan{
			{Kind: fault.MMIODrop, At: sim.Time(20 * sim.Microsecond), N: 3},
			{Kind: fault.MMIOTorn, At: sim.Time(40 * sim.Microsecond), N: 2},
			{Kind: fault.ProgramFail, At: 0, N: 4},
			{Kind: fault.Crash, At: sim.Time(300 * sim.Microsecond), N: 1},
		}, 7)
		if err != nil {
			t.Fatal(err)
		}
		s := newSinks(4 * sim.Microsecond)
		ff.Attach(core.Hooks{Probe: s.tracer, Registry: s.reg, Attribution: s.att, Flight: s.flight, Faults: eng})
		replayTrace(t, ff)
		s.reg.Finish(ff.Now())
		s.att.Finish(ff.Now())

		st := eng.Stats()
		if st.MMIODropped == 0 || st.ProgramFailures == 0 || st.CrashesFired == 0 {
			t.Fatalf("fault plan not exercised: %+v", st)
		}
		if s.flight.Triggers() == 0 {
			t.Fatal("flight recorder never triggered")
		}
		checkDigest(t, "flatflash/trace", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, s.tracer, s.reg) })
		checkDigest(t, "flatflash/metrics", s.reg.WriteJSONL)
		checkDigest(t, "flatflash/latency", s.att.WriteJSONL)
		checkDigest(t, "flatflash/flight", s.flight.WriteDump)
	})

	t.Run("baseline", func(t *testing.T) {
		h, err := core.NewTraditionalStack(core.DefaultConfig(64<<20, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		s := newSinks(0)
		h.Attach(core.Hooks{Probe: s.tracer, Registry: s.reg})
		replayTrace(t, h)
		s.reg.Finish(h.Now())
		checkDigest(t, "baseline/trace", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, s.tracer, s.reg) })
		checkDigest(t, "baseline/metrics", s.reg.WriteJSONL)
	})

	t.Run("experiments", func(t *testing.T) {
		s := newSinks(4 * sim.Microsecond)
		experiments.SetTelemetry(s.tracer, s.reg)
		experiments.SetAttribution(s.att, s.flight)
		defer func() {
			experiments.SetTelemetry(nil, nil)
			experiments.SetAttribution(nil, nil)
		}()
		checkDigest(t, "experiments/report", func(w io.Writer) error {
			return experiments.RunIDs(w, []string{"fig8", "fig9a"}, experiments.Quick)
		})
		s.reg.Finish(s.reg.LastObserved())
		checkDigest(t, "experiments/trace", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, s.tracer, s.reg) })
		checkDigest(t, "experiments/metrics", s.reg.WriteJSONL)
		checkDigest(t, "experiments/latency", s.att.WriteJSONL)
		checkDigest(t, "experiments/flight", s.flight.WriteDump)
	})

	t.Run("crashsweep", func(t *testing.T) {
		rec := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
		rep, err := crashsweep.Run(crashsweep.Config{Seed: 3, Points: 4, Flight: rec})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Triggers() == 0 {
			t.Fatal("crash sweep never triggered the flight recorder")
		}
		checkDigest(t, "crashsweep/report", rep.Write)
		checkDigest(t, "crashsweep/flight", rec.WriteDump)
	})
}
