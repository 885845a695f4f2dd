package workload

import (
	"math"
	"testing"
	"testing/quick"

	"flatflash/internal/sim"
)

func TestZipfRangeAndSkew(t *testing.T) {
	rng := sim.NewRNG(1)
	const n = 1000
	z := NewZipf(rng, n, DefaultZipfTheta)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= n {
			t.Fatalf("value out of range: %d", v)
		}
		counts[v]++
	}
	// Key 0 must be by far the most popular; the top-10 keys should take a
	// large share of all draws for theta=0.99.
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if counts[0] < counts[500]*10 {
		t.Errorf("no skew: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
	if float64(top10)/draws < 0.2 {
		t.Errorf("top-10 share too small: %f", float64(top10)/draws)
	}
}

func TestZipfPanics(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, f := range []func(){
		func() { NewZipf(rng, 0, 0.99) },
		func() { NewZipf(rng, 10, 0) },
		func() { NewZipf(rng, 10, 1) },
		func() { NewZipf(rng, 10, math.NaN()) },
		func() { NewUniform(rng, 0) },
		func() { NewLatest(rng, 0, 0.99) },
		func() { NewYCSB('X', rng, 10, 0.99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	rng := sim.NewRNG(2)
	const n = 10000
	s := NewScrambledZipf(rng, n, DefaultZipfTheta)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		v := s.Next()
		if v >= n {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Find the hottest key; it should NOT be key 0 (scrambling) with high
	// probability, and skew should persist.
	var hotKey uint64
	hot := 0
	for k, c := range counts {
		if c > hot {
			hot, hotKey = c, k
		}
	}
	if hot < 1000 {
		t.Errorf("scrambling destroyed skew: hottest=%d", hot)
	}
	_ = hotKey // key position is arbitrary by design
}

func TestUniformCoverage(t *testing.T) {
	rng := sim.NewRNG(3)
	u := NewUniform(rng, 16)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[u.Next()] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform over 16 hit only %d values", len(seen))
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	rng := sim.NewRNG(4)
	l := NewLatest(rng, 1000, DefaultZipfTheta)
	recent, old := 0, 0
	for i := 0; i < 10000; i++ {
		v := l.Next()
		if v >= 900 {
			recent++
		}
		if v < 100 {
			old++
		}
	}
	if recent < old*5 {
		t.Errorf("latest distribution not recency-biased: recent=%d old=%d", recent, old)
	}
	k := l.Insert()
	if k != 1000 || l.Tail() != 1001 {
		t.Fatalf("insert bookkeeping wrong: k=%d tail=%d", k, l.Tail())
	}
}

func TestYCSBMixB(t *testing.T) {
	rng := sim.NewRNG(5)
	y := NewYCSB('B', rng, 1000, DefaultZipfTheta)
	reads, updates := 0, 0
	for i := 0; i < 100000; i++ {
		op := y.Next()
		switch op.Kind {
		case OpRead:
			reads++
		case OpUpdate:
			updates++
		case OpInsert:
			t.Fatal("workload B must not insert")
		}
		if op.Key >= 1000 {
			t.Fatalf("key out of range: %d", op.Key)
		}
	}
	frac := float64(updates) / float64(reads+updates)
	if frac < 0.04 || frac > 0.06 {
		t.Errorf("update fraction = %f, want ~0.05", frac)
	}
	if y.Records() != 1000 {
		t.Fatal("workload B must not grow the key space")
	}
}

func TestYCSBMixD(t *testing.T) {
	rng := sim.NewRNG(6)
	y := NewYCSB('D', rng, 1000, DefaultZipfTheta)
	inserts := 0
	for i := 0; i < 100000; i++ {
		op := y.Next()
		if op.Kind == OpInsert {
			inserts++
		}
		if op.Kind == OpUpdate {
			t.Fatal("workload D must not update")
		}
		if op.Key >= y.Records() {
			t.Fatalf("key %d beyond records %d", op.Key, y.Records())
		}
	}
	if y.Records() != 1000+uint64(inserts) {
		t.Fatalf("records = %d, inserts = %d", y.Records(), inserts)
	}
	frac := float64(inserts) / 100000
	if frac < 0.04 || frac > 0.06 {
		t.Errorf("insert fraction = %f, want ~0.05", frac)
	}
}

// Property: all generators stay in range for arbitrary seeds and sizes.
func TestGeneratorsInRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := uint64(nRaw)%5000 + 2
		rng := sim.NewRNG(seed)
		z := NewZipf(rng, n, 0.8)
		s := NewScrambledZipf(rng, n, 0.8)
		u := NewUniform(rng, n)
		l := NewLatest(rng, n, 0.8)
		for i := 0; i < 200; i++ {
			if z.Next() >= n || s.Next() >= n || u.Next() >= n || l.Next() >= l.Tail() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
