package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"flatflash/internal/sim"
)

// directZeta is the reference the memo must reproduce bit for bit: the
// plain left-to-right sum, written out here rather than calling zeta.
func directZeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// TestZetaMemoBitIdentical covers the (n, theta) pairs the full paper
// suite asks for: the memoised constant equals the direct sum exactly,
// both on the call that fills the entry and on a later hit.
func TestZetaMemoBitIdentical(t *testing.T) {
	keys := []struct {
		n     uint64
		theta float64
	}{
		{393216, 0.99}, {131072, 0.99}, {8192, 0.99}, {16384, 0.99},
		{32768, 0.99}, {4096, 0.99}, {524288, 0.99},
		{13200, 0.75}, {12000, 0.75}, {4000, 0.75},
	}
	for _, k := range keys {
		want := math.Float64bits(directZeta(k.n, k.theta))
		for call := 0; call < 2; call++ {
			if got := math.Float64bits(memoZeta(k.n, k.theta)); got != want {
				t.Errorf("memoZeta(%d, %v) call %d = %#x, want %#x",
					k.n, k.theta, call, got, want)
			}
		}
	}
}

// TestZetaMemoConcurrent builds generators over one key from several
// goroutines at once (run it under -race): every one must get the same
// constants as a generator built alone.
func TestZetaMemoConcurrent(t *testing.T) {
	const n, theta = 77777, 0.61
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	gens := make([]*Zipf, workers)
	for w := range gens {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			gens[w] = NewZipf(sim.NewRNG(uint64(w)), n, theta)
		}(w)
	}
	close(start)
	wg.Wait()
	want := math.Float64bits(directZeta(n, theta))
	for w, z := range gens {
		if got := math.Float64bits(z.zetan); got != want {
			t.Errorf("worker %d zetan = %#x, want %#x", w, got, want)
		}
		if z.eta != gens[0].eta || z.alpha != gens[0].alpha || z.second != gens[0].second {
			t.Errorf("worker %d constants (eta %v alpha %v second %v) differ from worker 0 (%v %v %v)",
				w, z.eta, z.alpha, z.second, gens[0].eta, gens[0].alpha, gens[0].second)
		}
	}
}

// TestScrambledZipfGoldenDraws pins the draw stream: sha256 over the first
// 200k draws (little-endian uint64) of NewScrambledZipf(NewRNG(7), 131072,
// theta) for theta 0.75, 0.8 and 0.99 in that order. The digest was taken
// from the generator before zeta was memoised and the per-draw Pow
// hoisted, so any change to the bits of a draw fails here.
func TestScrambledZipfGoldenDraws(t *testing.T) {
	const golden = "221149c149c30c6a17809050c02d41a78541e68710c22a8c7ae8ff702c57facb"
	h := sha256.New()
	var b [8]byte
	for _, theta := range []float64{0.75, 0.8, 0.99} {
		s := NewScrambledZipf(sim.NewRNG(7), 131072, theta)
		for i := 0; i < 200000; i++ {
			binary.LittleEndian.PutUint64(b[:], s.Next())
			h.Write(b[:])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("draw digest = %s, want %s", got, golden)
	}
}

var zipfSink *Zipf

// TestNewZipfMemoHitAllocs is the set-up budget on a memo hit: the *Zipf
// itself and nothing else, as before the memo existed.
func TestNewZipfMemoHitAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	rng := sim.NewRNG(1)
	zipfSink = NewZipf(rng, 4096, DefaultZipfTheta)
	if avg := testing.AllocsPerRun(100, func() {
		zipfSink = NewZipf(rng, 4096, DefaultZipfTheta)
	}); avg > 1 {
		t.Fatalf("NewZipf on a memo hit allocates %.1f objects, want <= 1", avg)
	}
}

var drawSink uint64

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(sim.NewRNG(1), 131072, DefaultZipfTheta)
	for b.Loop() {
		drawSink = z.Next()
	}
}
