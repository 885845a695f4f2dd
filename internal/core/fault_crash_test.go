package core

import (
	"bytes"
	"errors"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/sim"
)

func faultedFF(t *testing.T, plan fault.Plan) *FlatFlash {
	t.Helper()
	ff, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	ff.Attach(Hooks{Faults: eng})
	return ff
}

// A scheduled power loss fires at an arbitrary virtual nanosecond — the
// access that crosses it fails with ErrCrashed, and the hierarchy recovers
// into a consistent state.
func TestScheduledCrashFiresMidRun(t *testing.T) {
	ff := faultedFF(t, fault.Plan{{Kind: fault.Crash, At: sim.Time(60 * sim.Microsecond), N: 1}})
	r, err := ff.Mmap(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var accErr error
	for i := 0; i < 500 && accErr == nil; i++ {
		_, accErr = ff.Write(r.Base+uint64(i%16)*4096, buf)
	}
	if !errors.Is(accErr, ErrCrashed) {
		t.Fatalf("scheduled crash never fired: err = %v", accErr)
	}
	c := ff.Counters()
	if c.Get("fault_crashes") != 1 || c.Get("crashes") != 1 {
		t.Fatalf("fault_crashes=%d crashes=%d, want 1/1",
			c.Get("fault_crashes"), c.Get("crashes"))
	}

	ff.Recover()
	c = ff.Counters()
	if c.Get("recoveries") != 1 {
		t.Fatalf("recoveries = %d", c.Get("recoveries"))
	}
	if c.Get("recovery_invariant_violations") != 0 {
		t.Fatal("recovery flagged invariant violations on a plain crash")
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Read(r.Base, buf); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

// A power loss aborts in-flight PLB promotions rather than completing them
// (the host bridge is outside the persistence domain), and the hierarchy
// stays consistent afterwards.
func TestCrashAbortsInFlightPromotions(t *testing.T) {
	ff, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(nil, 1) // engine only so fault counters export
	if err != nil {
		t.Fatal(err)
	}
	ff.Attach(Hooks{Faults: eng})
	r, err := ff.Mmap(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 200 && ff.Counters().Get("promotions") == 0; i++ {
		if _, err := ff.Read(r.Base, buf); err != nil {
			t.Fatal(err)
		}
	}
	if ff.Counters().Get("promotions") == 0 {
		t.Skip("promotion never started")
	}
	// Crash immediately, before the promotion's 12.1 µs flight completes.
	ff.Crash()
	if got := ff.Counters().Get("plb_aborted_promotions"); got == 0 {
		t.Fatal("crash completed in-flight promotions instead of aborting them")
	}
	ff.Recover()
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The page's durable home is still the SSD side; access works and the
	// freed frame is reusable for a fresh promotion.
	if _, err := ff.Read(r.Base, buf); err != nil {
		t.Fatal(err)
	}
}

// Recovery rebuilds the merged mapping from the persistence domain: the
// L2P scan recovers flash-resident mappings, persisted bytes survive, and
// the cross-layer invariants hold.
func TestRecoverRebuildsFromPersistenceDomain(t *testing.T) {
	ff, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ff.MmapPersistent(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("survives the crash")
	if _, err := ff.Write(p.Base+4096+128, want); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Persist(p.Base+4096+128, len(want)); err != nil {
		t.Fatal(err)
	}
	// Touch every page so dirty evictions from the tiny SSD-Cache push pages
	// to flash — giving the post-crash L2P scan something to rebuild.
	line := make([]byte, 64)
	for vpn := uint64(0); vpn < 64; vpn++ {
		if _, err := ff.Write(p.Base+vpn*4096, line); err != nil {
			t.Fatal(err)
		}
	}
	ff.Crash()
	ff.Recover()

	c := ff.Counters()
	if c.Get("recovery_l2p_entries") == 0 {
		t.Fatal("L2P rebuild recovered no mappings despite flash-resident pages")
	}
	if c.Get("recovery_invariant_violations") != 0 {
		t.Fatal("recovery reported invariant violations")
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := ff.Read(p.Base+4096+128, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("persisted bytes lost across crash/recover")
	}
}

// The test-only sabotage knob makes recovery drop the battery-backed write
// buffer; persisted-but-unflushed data must then be gone. This is the defect
// the crash-sweep harness exists to catch.
func TestBrokenRecoveryLosesDirtyData(t *testing.T) {
	ff, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ff.BreakRecoveryForTesting(true)
	p, err := ff.MmapPersistent(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("should survive")
	ff.Write(p.Base+128, want)
	ff.Persist(p.Base+128, len(want))
	ff.Crash()
	ff.Recover()
	got := make([]byte, len(want))
	ff.Read(p.Base+128, got)
	if bytes.Equal(got, want) {
		t.Fatal("broken recovery kept the dirty page; the sabotage knob does nothing")
	}
}

// A dropped posted write never reaches the SSD; a torn one lands only its
// first half. Both are visible in the persistence domain afterwards.
func TestMMIODropAndTornWrites(t *testing.T) {
	full := bytes.Repeat([]byte{0xAA}, 64)

	ff := faultedFF(t, fault.Plan{{Kind: fault.MMIODrop, At: 0, N: 1}})
	p, err := ff.MmapPersistent(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Write(p.Base, full); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	ff.Read(p.Base, got)
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("dropped MMIO write still reached the SSD")
	}
	c := ff.Counters()
	if c.Get("pcie_mmio_dropped") != 1 || c.Get("fault_mmio_dropped") != 1 {
		t.Fatalf("drop counters = %d/%d, want 1/1",
			c.Get("pcie_mmio_dropped"), c.Get("fault_mmio_dropped"))
	}

	ff = faultedFF(t, fault.Plan{{Kind: fault.MMIOTorn, At: 0, N: 1}})
	p, err = ff.MmapPersistent(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Write(p.Base, full); err != nil {
		t.Fatal(err)
	}
	ff.Read(p.Base, got)
	want := make([]byte, 64)
	copy(want, full[:32]) // first half landed, second half never arrived
	if !bytes.Equal(got, want) {
		t.Fatalf("torn write visible as % x, want half-written line", got)
	}
	if c := ff.Counters(); c.Get("pcie_mmio_torn") != 1 {
		t.Fatalf("pcie_mmio_torn = %d", c.Get("pcie_mmio_torn"))
	}
}

// Battery drain at crash time truncates the dirty set in ascending-LPN
// order; only the kept prefix survives recovery.
func TestBatteryDrainTruncatesDirtySet(t *testing.T) {
	ff := faultedFF(t, fault.Plan{{Kind: fault.BatteryDrain, At: 0, N: 1}})
	p, err := ff.MmapPersistent(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	mark := []byte("dirty page payload")
	for vpn := uint64(0); vpn < 4; vpn++ {
		if _, err := ff.Write(p.Base+vpn*4096, mark); err != nil {
			t.Fatal(err)
		}
		if _, err := ff.Persist(p.Base+vpn*4096, len(mark)); err != nil {
			t.Fatal(err)
		}
	}
	ff.Crash()
	ff.Recover()
	c := ff.Counters()
	if c.Get("fault_battery_truncations") != 1 {
		t.Fatalf("fault_battery_truncations = %d", c.Get("fault_battery_truncations"))
	}
	if c.Get("battery_lost_pages") == 0 {
		t.Fatal("battery drain lost no pages despite keep=1 and 4 dirty pages")
	}
	got := make([]byte, len(mark))
	ff.Read(p.Base, got) // lowest LPN: inside the kept prefix
	if !bytes.Equal(got, mark) {
		t.Fatal("kept prefix page lost")
	}
	ff.Read(p.Base+3*4096, got) // highest LPN: beyond the battery budget
	if bytes.Equal(got, mark) {
		t.Fatal("page beyond the battery budget survived")
	}
}
