package core

import (
	"bytes"
	"fmt"
	"testing"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// driveMixed runs a deterministic mixed workload (varied access sizes, page
// crossings, persistence, syncs, idle gaps) against an instrumented FlatFlash
// and returns everything an equivalence check could compare: the counter
// rendering, the trace bytes, the metrics JSONL, the final virtual time, and
// a read-back of the region contents.
func driveMixed(t *testing.T, cfg Config, seed uint64) (counters, trace, metrics, data string, now sim.Time) {
	t.Helper()
	h, err := NewFlatFlash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(1 << 16)
	reg := telemetry.NewRegistry(100 * sim.Microsecond)
	h.Attach(Hooks{Probe: tr, Registry: reg})

	region, err := h.MmapPersistent(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	buf := make([]byte, 4096+128) // big enough for every size below
	sizes := []int{1, 64, 100, 256, 4096, 4096 + 128}
	for i := 0; i < 3000; i++ {
		size := sizes[rng.Intn(len(sizes))]
		addr := region.Base + uint64(rng.Intn(int(region.Size)-size))
		switch {
		case i%7 == 0:
			for j := 0; j < size; j++ {
				buf[j] = byte(i + j)
			}
			if _, err := h.Write(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := h.Read(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
		}
		switch i % 400 {
		case 13:
			if _, err := h.Persist(addr, 64); err != nil {
				t.Fatal(err)
			}
		case 29:
			if _, err := h.SyncPages(addr, 1); err != nil {
				t.Fatal(err)
			}
		case 57:
			h.Advance(sim.Micros(50))
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
	read := make([]byte, 1<<16)
	if _, err := h.Read(region.Base, read); err != nil {
		t.Fatal(err)
	}
	return h.Counters().String(), tb.String(), mb.String(), string(read), h.Now()
}

// TestFastPathEquivalence is the determinism contract for the bulk DRAM-span
// fast path: with the same seed, fast and slow paths must produce
// byte-identical counters, traces, metrics, data, and virtual time.
func TestFastPathEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 20260805} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fastCfg := testConfig()
			slowCfg := testConfig()
			slowCfg.DisableFastPath = true
			fc, ft, fm, fd, fnow := driveMixed(t, fastCfg, seed)
			sc, st, sm, sd, snow := driveMixed(t, slowCfg, seed)
			if fc != sc {
				t.Errorf("counters diverge:\nfast:\n%s\nslow:\n%s", fc, sc)
			}
			if ft != st {
				t.Error("chrome traces diverge")
			}
			if fm != sm {
				t.Error("metrics JSONL diverges")
			}
			if fd != sd {
				t.Error("region contents diverge")
			}
			if fnow != snow {
				t.Errorf("virtual time diverges: fast %d slow %d", fnow, snow)
			}
		})
	}
}

// TestFastPathEquivalenceUninstrumented re-runs the contract without a
// tracer attached, since the fast path takes a different branch when
// probe == nil (single bulk clock advance instead of per-line spans).
func TestFastPathEquivalenceUninstrumented(t *testing.T) {
	run := func(disable bool) (string, sim.Time) {
		cfg := testConfig()
		cfg.DisableFastPath = disable
		h, err := NewFlatFlash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		region, err := h.Mmap(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(99)
		buf := make([]byte, 4096)
		for i := 0; i < 2000; i++ {
			size := 64 + rng.Intn(4000)
			addr := region.Base + uint64(rng.Intn(int(region.Size)-size))
			if i%5 == 0 {
				if _, err := h.Write(addr, buf[:size]); err != nil {
					t.Fatal(err)
				}
			} else if _, err := h.Read(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
		}
		h.Drain()
		return h.Counters().String(), h.Now()
	}
	fc, fnow := run(false)
	sc, snow := run(true)
	if fc != sc {
		t.Errorf("counters diverge:\nfast:\n%s\nslow:\n%s", fc, sc)
	}
	if fnow != snow {
		t.Errorf("virtual time diverges: fast %d slow %d", fnow, snow)
	}
}

// TestForceSlowPathToggle covers the package-level switch the experiment
// equivalence tests use.
func TestForceSlowPathToggle(t *testing.T) {
	SetForceSlowPath(true)
	if !forceSlowPath {
		t.Fatal("SetForceSlowPath(true) did not stick")
	}
	SetForceSlowPath(false)
	if forceSlowPath {
		t.Fatal("SetForceSlowPath(false) did not stick")
	}
}
