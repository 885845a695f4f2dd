package core

import (
	"bytes"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// driveInstrumented runs a fixed mixed workload against an instrumented
// hierarchy, with a fresh fault engine injecting plan when plan is non-nil,
// and returns the exported trace and metrics bytes.
func driveInstrumented(t *testing.T, build func() (Hierarchy, error), plan fault.Plan, seed uint64) (traceOut, metricsOut []byte, tr *telemetry.Tracer) {
	t.Helper()
	h, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var eng *fault.Engine
	if plan != nil {
		if eng, err = fault.NewEngine(plan, 7); err != nil {
			t.Fatal(err)
		}
	}
	tr = telemetry.NewTracer(1 << 16)
	reg := telemetry.NewRegistry(100 * sim.Microsecond)
	h.Attach(Hooks{Probe: tr, Registry: reg, Faults: eng})

	region, err := h.Mmap(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	buf := make([]byte, 64)
	// Zipf-ish reuse: half the accesses hit a small hot set so promotions
	// trigger; the rest roam the region and exercise the MMIO path.
	hot := region.Base
	for i := 0; i < 4000; i++ {
		addr := hot + uint64(rng.Intn(4))*64
		if rng.Intn(2) == 0 {
			addr = region.Base + uint64(rng.Intn(int(region.Size-64)))
		}
		if i%10 == 0 {
			if _, err := h.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		} else if _, err := h.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	reg.Finish(h.Now())

	var tb, mb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tr, reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	if len(reg.Rows()) < 2 {
		t.Fatalf("only %d metric epochs sampled", len(reg.Rows()))
	}
	return tb.Bytes(), mb.Bytes(), tr
}

func buildFF() (Hierarchy, error) { return NewFlatFlash(testConfig()) }

// nonCrashFaults injects NAND failures and MMIO drops/tears, which ride
// through the workload without erroring the access path, unlike a power
// loss.
var nonCrashFaults = fault.Plan{
	{Kind: fault.ProgramFail, At: sim.Time(50 * sim.Microsecond), N: 2},
	{Kind: fault.MMIODrop, At: sim.Time(120 * sim.Microsecond), N: 3},
	{Kind: fault.MMIOTorn, At: sim.Time(200 * sim.Microsecond), N: 2},
}

// TestTelemetryDeterministic: two same-seed runs must export byte-identical
// trace and metrics files — the property that makes dumps diffable. The
// faulted run extends the guarantee to fault-injected runs: the engine's
// seeded draws are part of the deterministic state.
func TestTelemetryDeterministic(t *testing.T) {
	for _, tc := range []struct {
		build func() (Hierarchy, error)
		plan  fault.Plan
	}{
		{buildFF, nil},
		{buildFF, nonCrashFaults},
		{func() (Hierarchy, error) { return NewUnifiedMMap(testConfig()) }, nil},
	} {
		t1, m1, _ := driveInstrumented(t, tc.build, tc.plan, 7)
		t2, m2, _ := driveInstrumented(t, tc.build, tc.plan, 7)
		if !bytes.Equal(t1, t2) {
			t.Error("trace bytes differ between same-seed runs")
		}
		if !bytes.Equal(m1, m2) {
			t.Error("metrics bytes differ between same-seed runs")
		}
	}
}

// TestTelemetrySpanNesting: the FlatFlash trace must contain at least one
// access span that covers an MMIO read in time (the nested-stage view the
// exporter promises) and at least one background promotion span.
func TestTelemetrySpanNesting(t *testing.T) {
	_, _, tr := driveInstrumented(t, buildFF, nil, 7)
	spans := tr.Spans()
	var accesses, mmios []telemetry.Span
	promotions := 0
	for _, s := range spans {
		switch s.Kind {
		case telemetry.SpanAccess:
			accesses = append(accesses, s)
		case telemetry.SpanMMIORead, telemetry.SpanMMIOWrite:
			mmios = append(mmios, s)
		case telemetry.SpanPromotion:
			promotions++
		}
	}
	if len(accesses) == 0 || len(mmios) == 0 {
		t.Fatalf("accesses=%d mmios=%d", len(accesses), len(mmios))
	}
	nested := false
	for _, a := range accesses {
		for _, m := range mmios {
			if !m.Start.Before(a.Start) && !a.End().Before(m.End()) {
				nested = true
				break
			}
		}
		if nested {
			break
		}
	}
	if !nested {
		t.Error("no MMIO span nested inside an access span")
	}
	if promotions == 0 {
		t.Error("no promotion span recorded")
	}
}

// TestBaselineFaultSpans: the paging baselines must report page-fault spans.
func TestBaselineFaultSpans(t *testing.T) {
	_, _, tr := driveInstrumented(t, func() (Hierarchy, error) {
		return NewTraditionalStack(testConfig())
	}, nil, 7)
	faults := 0
	for _, s := range tr.Spans() {
		if s.Kind == telemetry.SpanPageFault {
			faults++
		}
	}
	if faults == 0 {
		t.Error("no page_fault span recorded on TraditionalStack")
	}
}

// TestDisabledProbeZeroAlloc: with no probe and no registry attached, the
// steady-state access path must not allocate — telemetry must be free when
// off. A zero Hooks must be the same as never attaching.
func TestDisabledProbeZeroAlloc(t *testing.T) {
	for _, build := range []func() (Hierarchy, error){buildFF,
		func() (Hierarchy, error) { return NewUnifiedMMap(testConfig()) }} {
		for _, attach := range []bool{false, true} {
			h, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if attach {
				h.Attach(Hooks{})
			}
			region, err := h.Mmap(64 << 10)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			// Settle: promote/fault the page in and let background
			// promotions complete so the steady state is a pure DRAM hit.
			for i := 0; i < 64; i++ {
				if _, err := h.Read(region.Base, buf); err != nil {
					t.Fatal(err)
				}
			}
			h.Advance(10 * sim.Millisecond)
			if allocs := testing.AllocsPerRun(500, func() {
				h.Read(region.Base, buf)
			}); allocs != 0 {
				t.Errorf("%s (zero Hooks attached: %v): %v allocs per access with telemetry disabled", h.Name(), attach, allocs)
			}
		}
	}
}

// TestInstrumentedTickZeroAllocBetweenEpochs: with a registry attached but
// no epoch boundary crossed, Tick must stay allocation-free too (the common
// case between samples).
func TestInstrumentedTickZeroAllocBetweenEpochs(t *testing.T) {
	h, err := buildFF()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(sim.Second) // boundary far in the future
	h.Attach(Hooks{Registry: reg})
	region, err := h.Mmap(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 64; i++ {
		if _, err := h.Read(region.Base, buf); err != nil {
			t.Fatal(err)
		}
	}
	h.Advance(10 * sim.Millisecond)
	if allocs := testing.AllocsPerRun(500, func() {
		h.Read(region.Base, buf)
	}); allocs != 0 {
		t.Errorf("%v allocs per access with registry attached (no epoch crossed)", allocs)
	}
}
