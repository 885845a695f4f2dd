package flash

import (
	"bytes"
	"errors"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/sim"
)

// readBoth reads page p through Read and through Peek and returns both
// results.
func readBoth(t *testing.T, d *Device, p PageAddr) (read, peek []byte) {
	t.Helper()
	read = make([]byte, d.Config().PageSize)
	peek = make([]byte, d.Config().PageSize)
	if _, err := d.Read(0, p, read); err != nil {
		t.Fatal(err)
	}
	if err := d.Peek(p, peek); err != nil {
		t.Fatal(err)
	}
	return read, peek
}

func requireErased(t *testing.T, d *Device, p PageAddr, what string) {
	t.Helper()
	want := bytes.Repeat([]byte{0xFF}, d.Config().PageSize)
	read, peek := readBoth(t, d, p)
	if !bytes.Equal(read, want) {
		t.Fatalf("%s: Read of page %d is not all-0xFF", what, p)
	}
	if !bytes.Equal(peek, want) {
		t.Fatalf("%s: Peek of page %d is not all-0xFF", what, p)
	}
}

// TestErasedReadsNeverProgrammed: a page nothing ever wrote reads as 0xFF,
// the device's last page included.
func TestErasedReadsNeverProgrammed(t *testing.T) {
	d, _ := NewDevice(testConfig())
	requireErased(t, d, 3, "never programmed")
	requireErased(t, d, PageAddr(testConfig().TotalPages()-1), "last page")
}

// TestErasedReadsAfterRecycle: after an erase the page's buffer goes back
// to the pool and a later program reuses it with other data; the erased
// page must still read as 0xFF, not as the recycled buffer's new contents.
func TestErasedReadsAfterRecycle(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDevice(cfg)
	data := bytes.Repeat([]byte{0x11}, cfg.PageSize)
	if _, err := d.Program(0, 2, data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	// Page 8 is in block 1; its program pops page 2's old buffer.
	other := bytes.Repeat([]byte{0x22}, cfg.PageSize)
	if _, err := d.Program(0, 8, other); err != nil {
		t.Fatal(err)
	}
	requireErased(t, d, 2, "erased after program")
	read, peek := readBoth(t, d, 8)
	if !bytes.Equal(read, other) || !bytes.Equal(peek, other) {
		t.Fatal("recycled buffer does not hold the new program's data")
	}
}

// TestErasedReadsAfterFailedProgram: a program the fault engine fails
// leaves the page non-erased but without data; it reads as 0xFF.
func TestErasedReadsAfterFailedProgram(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDevice(cfg)
	eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: 0, N: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(nil, eng)
	if _, err := d.Program(0, 4, bytes.Repeat([]byte{0x33}, cfg.PageSize)); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("program err = %v, want ErrProgramFailed", err)
	}
	if d.IsErased(4) {
		t.Fatal("failed program left the page erased")
	}
	requireErased(t, d, 4, "failed program")
}

// TestErasedReadIsACopy: the bytes an erased read returns belong to the
// caller; scribbling on them must not change what the next erased read
// returns, through either entry point.
func TestErasedReadIsACopy(t *testing.T) {
	d, _ := NewDevice(testConfig())
	read, peek := readBoth(t, d, 1)
	for i := range read {
		read[i] = byte(i)
		peek[i] = 0
	}
	requireErased(t, d, 1, "after scribbling on an earlier read")
	requireErased(t, d, 5, "another page after scribbling")
}

// TestReadZeroAlloc is Read's allocation budget: neither an erased nor a
// programmed page allocates.
func TestReadZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg := testConfig()
	d, _ := NewDevice(cfg)
	if _, err := d.Program(0, 9, bytes.Repeat([]byte{0x44}, cfg.PageSize)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	for _, tc := range []struct {
		name string
		p    PageAddr
	}{{"erased", 10}, {"programmed", 9}} {
		if avg := testing.AllocsPerRun(1000, func() {
			if _, err := d.Read(0, tc.p, buf); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("Read of a %s page allocates %.2f objects/op, want 0", tc.name, avg)
		}
	}
}
