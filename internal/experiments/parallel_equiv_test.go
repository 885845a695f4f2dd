package experiments

import (
	"bytes"
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
