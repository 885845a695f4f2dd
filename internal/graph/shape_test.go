package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"testing"

	"flatflash/internal/core"
)

// edgeDigest hashes every vertex's out-degree and adjacency list, read back
// through the hierarchy, in vertex order.
func edgeDigest(t *testing.T, g *Graph) string {
	t.Helper()
	h := sha256.New()
	var b [4]byte
	for v := 0; v < g.V; v++ {
		edges, err := g.Edges(v)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(b[:], uint32(len(edges)))
		h.Write(b[:])
		for _, e := range edges {
			binary.LittleEndian.PutUint32(b[:], e)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenEdges is edgeDigest of Generate(h, 4000, 12, 40) — fig10's Quick
// Twitter stand-in — recorded when every Generate call drew its own shape.
// A change to the draw order, the self-loop rule or the load shows here.
const (
	goldenEdges = "1cde072b68507b056b820bd875c365253981080dc1d500f4d589c925acae45a6"
	goldenE     = 48414
)

// TestGenerateMatchesGolden loads the same graph into two hierarchies, so
// the second load is a memo hit, and checks both against the golden digest.
func TestGenerateMatchesGolden(t *testing.T) {
	for i := 0; i < 2; i++ {
		g, err := Generate(newFF(t), 4000, 12, 40)
		if err != nil {
			t.Fatal(err)
		}
		if g.E != goldenE {
			t.Fatalf("load %d: E = %d, want %d", i, g.E, goldenE)
		}
		if got := edgeDigest(t, g); got != goldenEdges {
			t.Fatalf("load %d: edge digest %s, want %s", i, got, goldenEdges)
		}
	}
}

// TestGenerateLeavesShapeUnmodified: loading a graph and running both
// algorithms over it must not write to the shared shape.
func TestGenerateLeavesShapeUnmodified(t *testing.T) {
	want := drawShape(500, 6, 9)
	g, err := Generate(newFF(t), 500, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PageRank(2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConnectedComponents(5); err != nil {
		t.Fatal(err)
	}
	got := memoShape(500, 6, 9)
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.targets, want.targets) {
		t.Fatal("loading and running the graph changed its memoised shape")
	}
}

// TestGenerateConcurrent: goroutines generating one key at once, each into
// its own hierarchy, share the single memoised shape and load the same
// edges. Run under -race, this also checks the memo's locking.
func TestGenerateConcurrent(t *testing.T) {
	const workers = 8
	hs := make([]core.Hierarchy, workers)
	for w := range hs {
		hs[w] = newFF(t)
	}
	graphs := make([]*Graph, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			graphs[w], errs[w] = Generate(hs[w], 700, 5, 123)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := edgeDigest(t, graphs[0])
	for w, g := range graphs {
		if &g.offsets[0] != &graphs[0].offsets[0] {
			t.Fatalf("worker %d drew its own shape", w)
		}
		if got := edgeDigest(t, g); got != want {
			t.Fatalf("worker %d: edge digest %s, want %s", w, got, want)
		}
	}
}
