package flatflash

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"flatflash/internal/experiments"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// quickSuiteDigest is the sha256 of every experiment's Quick-scale report,
// as RunAll prints them. Host-side speedups (memos, copies, index
// structures) must leave it unchanged; a change that moves a simulated
// byte, latency or counter changes it, and must update it on purpose.
const quickSuiteDigest = "7e96c5902dd813a44ceb6ebab3ffd96a15888e3a237690eca0bc574baf9c13ba"

// TestQuickSuiteByteIdentical pins the whole Quick-scale paper suite's
// output to a recorded digest at GOMAXPROCS 1 and 4, and with a telemetry
// registry attached, which forces RunAll onto one worker.
func TestQuickSuiteByteIdentical(t *testing.T) {
	if sim.RaceEnabled {
		// About 40 s per run under the race detector; the race-enabled
		// fan-out check is TestRunIDsWorkersByteIdentical's cheap subset.
		t.Skip("the suite digest is checked by the race-free test pass")
	}
	check := func(t *testing.T) {
		h := sha256.New()
		if err := experiments.RunAll(h, experiments.Quick); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != quickSuiteDigest {
			t.Fatalf("Quick suite report digest %s, want %s: a simulated result changed", got, quickSuiteDigest)
		}
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			check(t)
		})
	}
	t.Run("telemetry", func(t *testing.T) {
		// An attached sink forces one worker whatever GOMAXPROCS says: the
		// digest holds and the sink sees the same series as on one core.
		metrics := func(procs int) string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			reg := telemetry.NewRegistry(sim.Millisecond)
			experiments.SetTelemetry(nil, reg)
			defer experiments.SetTelemetry(nil, nil)
			check(t)
			reg.Finish(reg.LastObserved())
			h := sha256.New()
			if err := reg.WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
			return hex.EncodeToString(h.Sum(nil))
		}
		if one, four := metrics(1), metrics(4); one != four {
			t.Fatalf("metrics digest %s at GOMAXPROCS=4, %s at GOMAXPROCS=1", four, one)
		}
	})
}
