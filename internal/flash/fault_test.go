package flash

import (
	"errors"
	"testing"

	"flatflash/internal/fault"
)

func TestInjectedProgramAndEraseFailures(t *testing.T) {
	d, err := NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(fault.Plan{
		{Kind: fault.ProgramFail, At: 0, N: 1},
		{Kind: fault.EraseFail, At: 0, N: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(nil, eng)

	buf := make([]byte, testConfig().PageSize)
	done, err := d.Program(0, 0, buf)
	if !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("first program err = %v, want ErrProgramFailed", err)
	}
	if done <= 0 {
		t.Fatal("failed program attempt paid no latency")
	}
	// The failure budget is spent: the next program succeeds.
	if _, err := d.Program(done, 1, buf); err != nil {
		t.Fatalf("second program: %v", err)
	}

	done, err = d.Erase(done, 0)
	if !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("first erase err = %v, want ErrEraseFailed", err)
	}
	if _, err := d.Erase(done, 0); err != nil {
		t.Fatalf("second erase: %v", err)
	}

	pf, ef := d.FaultCounts()
	if pf != 1 || ef != 1 {
		t.Fatalf("FaultCounts = (%d, %d), want (1, 1)", pf, ef)
	}
}

func TestNoFaultsWithoutEngine(t *testing.T) {
	d, err := NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, testConfig().PageSize)
	if _, err := d.Program(0, 0, buf); err != nil {
		t.Fatalf("program without engine: %v", err)
	}
	if pf, ef := d.FaultCounts(); pf != 0 || ef != 0 {
		t.Fatalf("FaultCounts = (%d, %d) with no engine", pf, ef)
	}
}
