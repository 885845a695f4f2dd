package vm

import (
	"testing"

	"flatflash/internal/sim"
)

// refLRU is a naive slice-backed exact-LRU used as the behavioral oracle for
// the intrusive-array TLB.
type refLRU struct {
	cap  int
	vpns []uint64 // MRU first
}

func (r *refLRU) lookup(vpn uint64) bool {
	for i, v := range r.vpns {
		if v == vpn {
			r.vpns = append(r.vpns[:i], r.vpns[i+1:]...)
			r.vpns = append([]uint64{vpn}, r.vpns...)
			return true
		}
	}
	return false
}

func (r *refLRU) insert(vpn uint64) {
	if len(r.vpns) == r.cap {
		r.vpns = r.vpns[:len(r.vpns)-1]
	}
	r.vpns = append([]uint64{vpn}, r.vpns...)
}

func (r *refLRU) invalidate(vpn uint64) {
	for i, v := range r.vpns {
		if v == vpn {
			r.vpns = append(r.vpns[:i], r.vpns[i+1:]...)
			return
		}
	}
}

// TestTLBMatchesReferenceLRU drives the array TLB and a naive exact-LRU with
// the same random access/invalidate stream and requires identical hit/miss
// decisions throughout. Byte-identical reports depend on this equivalence.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	const capacity = 8
	tl := newTLB(capacity, capacity*3)
	ref := &refLRU{cap: capacity}
	rng := sim.NewRNG(7)
	for i := 0; i < 20000; i++ {
		vpn := uint64(rng.Intn(capacity * 3)) // enough reuse and enough pressure
		if rng.Intn(20) == 0 {
			tl.invalidate(vpn)
			ref.invalidate(vpn)
			continue
		}
		got := tl.lookup(vpn)
		want := ref.lookup(vpn)
		if got != want {
			t.Fatalf("step %d vpn %d: tlb hit=%v, reference hit=%v", i, vpn, got, want)
		}
		if !got {
			tl.insert(vpn)
			ref.insert(vpn)
		}
	}
}

// TestTLBEvictsLRU pins the exact eviction order: filling the TLB and adding
// one more entry must evict the least recently used, not an arbitrary slot.
func TestTLBEvictsLRU(t *testing.T) {
	tl := newTLB(4, 101)
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.insert(vpn)
	}
	// Touch 0 so 1 becomes the LRU, then overflow.
	if !tl.lookup(0) {
		t.Fatal("vpn 0 should hit")
	}
	tl.insert(100)
	if tl.lookup(1) {
		t.Fatal("vpn 1 should have been evicted as LRU")
	}
	for _, vpn := range []uint64{0, 2, 3, 100} {
		if !tl.lookup(vpn) {
			t.Fatalf("vpn %d should still be resident", vpn)
		}
	}
}

// TestTranslateZeroAllocSteadyState is the TLB's allocation budget: once
// every VPN has been through the TLB, Translate (hit or miss+insert+evict)
// allocates nothing.
func TestTranslateZeroAllocSteadyState(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.TLBEntries = 16
	a, err := New(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 256; vpn++ {
		a.Map(vpn, PTE{Loc: InSSD, SSDPage: uint32(vpn)})
	}
	// Warm: cycle every VPN through the TLB so each one has been inserted
	// and evicted at least once before the budget is measured.
	for vpn := uint64(0); vpn < 256; vpn++ {
		if _, _, err := a.Translate(vpn); err != nil {
			t.Fatal(err)
		}
	}
	var vpn uint64
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := a.Translate(vpn % 256); err != nil {
			t.Fatal(err)
		}
		vpn += 3 // mix of hits and miss+evict cycles
	}); avg != 0 {
		t.Fatalf("Translate allocates %.2f objects/op at steady state, want 0", avg)
	}
}

// TestAddressSpaceMatchesReferenceLRU drives Translate and UpdateMapping
// over the whole VPN range, the last VPN included, and checks the hit, miss
// and shootdown counts from Stats against the naive exact-LRU after every
// step: the dense per-VPN slot index must behave like the reference at both
// ends of the address space.
func TestAddressSpaceMatchesReferenceLRU(t *testing.T) {
	const capacity, maxPages = 8, 64
	cfg := DefaultConfig()
	cfg.TLBEntries = capacity
	a, err := New(cfg, maxPages)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < maxPages; vpn++ {
		a.Map(vpn, PTE{Loc: InSSD, SSDPage: uint32(vpn)})
	}
	ref := &refLRU{cap: capacity}
	var hits, misses, shootdowns int64
	rng := sim.NewRNG(11)
	for i := 0; i < 20000; i++ {
		// Favour both ends so VPN 0 and VPN maxPages-1 see every transition.
		var vpn uint64
		switch rng.Intn(4) {
		case 0:
			vpn = uint64(rng.Intn(capacity / 2))
		case 1:
			vpn = maxPages - 1 - uint64(rng.Intn(capacity/2))
		default:
			vpn = uint64(rng.Intn(maxPages))
		}
		if rng.Intn(10) == 0 {
			a.UpdateMapping(vpn, PTE{Loc: InDRAM, Frame: i})
			ref.invalidate(vpn)
			shootdowns++
		} else {
			if _, _, err := a.Translate(vpn); err != nil {
				t.Fatal(err)
			}
			if ref.lookup(vpn) {
				hits++
			} else {
				ref.insert(vpn)
				misses++
			}
		}
		gh, gm, gs := a.Stats()
		if gh != hits || gm != misses || gs != shootdowns {
			t.Fatalf("step %d vpn %d: Stats = (%d, %d, %d), reference (%d, %d, %d)",
				i, vpn, gh, gm, gs, hits, misses, shootdowns)
		}
	}
	if _, _, err := a.Translate(maxPages); err != ErrUnmapped {
		t.Fatalf("Translate(maxPages) err = %v, want ErrUnmapped", err)
	}
}
