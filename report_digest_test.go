package flatflash

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"flatflash/internal/experiments"
	"flatflash/internal/sim"
)

// quickSuiteDigest is the sha256 of every experiment's Quick-scale report,
// as RunAll prints them. Host-side speedups (memos, copies, index
// structures) must leave it unchanged; a change that moves a simulated
// byte, latency or counter changes it, and must update it on purpose.
const quickSuiteDigest = "7e96c5902dd813a44ceb6ebab3ffd96a15888e3a237690eca0bc574baf9c13ba"

// TestQuickSuiteByteIdentical pins the whole Quick-scale paper suite's
// output to a recorded digest.
func TestQuickSuiteByteIdentical(t *testing.T) {
	if sim.RaceEnabled {
		// About 40 s under the race detector for a single-threaded run that
		// the race-free test pass checks byte for byte anyway.
		t.Skip("the suite digest is checked by the race-free test pass")
	}
	h := sha256.New()
	if err := experiments.RunAll(h, experiments.Quick); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickSuiteDigest {
		t.Fatalf("Quick suite report digest %s, want %s: a simulated result changed", got, quickSuiteDigest)
	}
}
