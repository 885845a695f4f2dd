package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// Figure-level gate for the -parallel flag: rendering the consolidate and
// fleet experiments with several workers per simulation must
// produce byte-identical report output. This is the same comparison ci.sh
// makes end-to-end through the flatflash-bench binary.
func TestParallelReportsByteIdentical(t *testing.T) {
	for _, id := range []string{"consolidate", "fleet"} {
		t.Run(id, func(t *testing.T) {
			SetParallel(0)
			var seq bytes.Buffer
			if err := Run(&seq, id, Quick); err != nil {
				t.Fatal(err)
			}
			SetParallel(4)
			defer SetParallel(0)
			var par bytes.Buffer
			if err := Run(&par, id, Quick); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Fatalf("-parallel changed the %s report:\n--- sequential ---\n%s--- parallel ---\n%s",
					id, seq.String(), par.String())
			}
		})
	}
}

// TestRunIDsWorkersByteIdentical runs a cheap subset of the suite through
// RunIDs on four workers and on one, and requires the same bytes. Under the
// race detector it also checks that concurrently running experiments share
// no unsynchronised state (the host-side memos, the package settings).
func TestRunIDsWorkersByteIdentical(t *testing.T) {
	ids := []string{"table2", "fig9a", "fig13", "fig7", "mapamp"}
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		if err := RunIDs(&buf, ids, Quick); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, four := run(1), run(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("four workers changed the reports:\n--- one ---\n%s--- four ---\n%s", one, four)
	}
}
