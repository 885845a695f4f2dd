package ftl

import (
	"bytes"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/sim"
)

func TestProgramFailureRemapsToFreshBlock(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: 0, N: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Device().Attach(nil, eng)

	done, err := f.WritePage(0, 7, page(f, 0xAB))
	if err != nil {
		t.Fatalf("write through program failure: %v", err)
	}
	if got := f.Remap().BadBlocks; got != 1 {
		t.Fatalf("BadBlocks = %d, want 1", got)
	}
	buf := make([]byte, f.PageSize())
	if _, err := f.ReadPage(done, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(f, 0xAB)) {
		t.Fatal("data written through a remapped block reads back wrong")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailureRetiresGCVictim(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(fault.Plan{{Kind: fault.EraseFail, At: 0, N: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Device().Attach(nil, eng)

	// Churn a small working set so GC runs many times; the first erase fails
	// and must retire the victim without losing any live page.
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		var err error
		now, err = f.WritePage(now, uint32(i%8), page(f, byte(i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	r := f.Remap()
	if r.GCRuns == 0 {
		t.Fatal("GC never ran; test exercises nothing")
	}
	if r.BadBlocks != 1 {
		t.Fatalf("BadBlocks = %d, want 1", r.BadBlocks)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.PageSize())
	for lpn := uint32(0); lpn < 8; lpn++ {
		if _, err := f.ReadPage(now, lpn, buf); err != nil {
			t.Fatal(err)
		}
		if want := page(f, byte(392+lpn)); !bytes.Equal(buf, want) {
			t.Fatalf("lpn %d lost its last write across the erase failure", lpn)
		}
	}
}

func TestRebuildL2PRestoresMapping(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 40; i++ {
		now, err = f.WritePage(now, uint32(i%10), page(f, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := f.RebuildL2P(); n != 10 {
		t.Fatalf("RebuildL2P recovered %d mappings, want 10", n)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.PageSize())
	for lpn := uint32(0); lpn < 10; lpn++ {
		if _, err := f.ReadPage(now, lpn, buf); err != nil {
			t.Fatal(err)
		}
		if want := page(f, byte(30+lpn)); !bytes.Equal(buf, want) {
			t.Fatalf("lpn %d reads stale data after rebuild", lpn)
		}
	}
}
