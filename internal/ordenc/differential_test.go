package ordenc_test

// Corpus-driven differentials: the ordering-based SAT strategy must
// agree exactly with the elimination DP on every testdata/corpus
// instance and the E-series generator families. Lives in an external
// test package so it can use internal/corpus (which imports
// internal/solve, which imports ordenc) without a build cycle.

import (
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/ordenc"
)

// diffLimit bounds instance size: the exact reference DP is exponential
// in the vertex count.
const diffLimit = 14

func ghwDeepen(t *testing.T, h *hypergraph.Hypergraph) (int, *decomp.Decomp) {
	t.Helper()
	s, err := ordenc.NewGHWSearch(h, 2)
	if err != nil {
		t.Fatalf("NewGHWSearch: %v", err)
	}
	for k := 1; k <= h.NumEdges(); k++ {
		d, err := s.Check(nil, k)
		if err != nil {
			t.Fatalf("Check(%d): %v", k, err)
		}
		if d != nil {
			return k, d
		}
	}
	t.Fatal("no level accepted")
	return 0, nil
}

func fhwDeepen(t *testing.T, h *hypergraph.Hypergraph) (*big.Rat, *decomp.Decomp) {
	t.Helper()
	s, err := ordenc.NewFHWSearch(h)
	if err != nil {
		t.Fatalf("NewFHWSearch: %v", err)
	}
	var d *decomp.Decomp
	var w *big.Rat
	for k := 1; ; k++ {
		if k > h.NumEdges() {
			t.Fatal("no integer level accepted")
		}
		var err error
		d, w, err = s.CheckLevel(nil, lp.RI(int64(k)))
		if err != nil {
			t.Fatalf("CheckLevel(%d): %v", k, err)
		}
		if d != nil {
			break
		}
	}
	for {
		d2, w2, err := s.RefineBelow(nil, w)
		if err != nil {
			t.Fatalf("RefineBelow(%s): %v", w.RatString(), err)
		}
		if d2 == nil {
			return w, d
		}
		d, w = d2, w2
	}
}

func checkInstance(t *testing.T, name string, h *hypergraph.Hypergraph) {
	t.Run(name+"/ghw", func(t *testing.T) {
		want, _ := core.ExactGHW(h)
		got, d := ghwDeepen(t, h)
		if got != want {
			t.Fatalf("sat-ord ghw = %d, ExactGHW = %d", got, want)
		}
		if err := d.ValidateWidth(decomp.GHD, lp.RI(int64(want))); err != nil {
			t.Fatalf("witness: %v", err)
		}
	})
	t.Run(name+"/fhw", func(t *testing.T) {
		want, _ := core.ExactFHW(h)
		got, d := fhwDeepen(t, h)
		if got.Cmp(want) != 0 {
			t.Fatalf("sat-ord fhw = %s, ExactFHW = %s", got.RatString(), want.RatString())
		}
		if err := d.ValidateWidth(decomp.FHD, want); err != nil {
			t.Fatalf("witness: %v", err)
		}
	})
	t.Run(name+"/hw-lb", func(t *testing.T) {
		// The hw use of the encoding is lower-bound-only: every level
		// the encoding rejects is below ghw, hence below hw.
		hw := 0
		for k := 1; k <= h.NumEdges(); k++ {
			if core.CheckHD(h, k) != nil {
				hw = k
				break
			}
		}
		if hw == 0 {
			t.Fatal("no hw level accepted")
		}
		s, err := ordenc.NewGHWSearch(h, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= hw; k++ {
			d, err := s.Check(nil, k)
			if err != nil {
				t.Fatalf("Check(%d): %v", k, err)
			}
			if d == nil && k >= hw {
				t.Fatalf("encoding rejected k=%d but hw=%d", k, hw)
			}
			if d != nil {
				return // accepted at or below hw, consistent
			}
		}
	})
}

func TestDifferentialCorpus(t *testing.T) {
	instances, err := corpus.LoadDir(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(instances) == 0 {
		t.Fatal("empty corpus")
	}
	ran := 0
	for _, in := range instances {
		h, _, err := in.Read()
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if h.NumVertices() > diffLimit || h.NumEdges() == 0 {
			continue
		}
		ran++
		checkInstance(t, in.Name, h)
	}
	if ran == 0 {
		t.Fatal("no corpus instance within the differential size limit")
	}
}

func TestDifferentialESeries(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"clique6", hypergraph.Clique(6)},
		{"cycle8", hypergraph.Cycle(8)},
		{"grid2x5", hypergraph.Grid(2, 5)},
		{"grid3x4", hypergraph.Grid(3, 4)},
		{"path8", hypergraph.Path(8)},
		{"hypercycle4-3-1", hypergraph.HyperCycle(4, 3, 1)},
		{"hypercycle6-3-1", hypergraph.HyperCycle(6, 3, 1)},
		{"hypercycle5-4-2", hypergraph.HyperCycle(5, 4, 2)},
	}
	for _, tc := range cases {
		if tc.h.NumVertices() > diffLimit {
			t.Fatalf("%s exceeds the differential size limit", tc.name)
		}
		checkInstance(t, tc.name, tc.h)
	}
}

// TestDifferentialRandomFHW: the elimination DP's warm-LP bag pricing
// against the sat-ord fhw search, an independent exact path with its own
// per-bag LPs, on seeded random instances of 8–16 vertices.
func TestDifferentialRandomFHW(t *testing.T) {
	ran := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + 2*int(seed%5)
		for kind, h := range []*hypergraph.Hypergraph{
			hypergraph.RandomBIP(rng, n, n, 4, 2),
			hypergraph.RandomBoundedDegree(rng, n, n, 4, 3),
		} {
			name := fmt.Sprintf("seed%d/%s/n=%d", seed, []string{"bip", "bdeg"}[kind], n)
			want, wd := core.ExactFHW(h)
			if isolated := h.NumVertices() - coveredCount(h); isolated > 0 {
				if want != nil {
					t.Fatalf("%s: %d isolated vertices, yet ExactFHW = %s", name, isolated, want.RatString())
				}
				continue
			}
			ran++
			if want == nil {
				t.Fatalf("%s: ExactFHW found no decomposition", name)
			}
			if err := wd.ValidateWidth(decomp.FHD, want); err != nil {
				t.Fatalf("%s: ExactFHW witness: %v", name, err)
			}
			if got, _ := fhwDeepen(t, h); got.Cmp(want) != 0 {
				t.Fatalf("%s: sat-ord fhw = %s, ExactFHW = %s", name, got.RatString(), want.RatString())
			}
		}
	}
	if ran < 10 {
		t.Fatalf("only %d random instances without isolated vertices", ran)
	}
}

// coveredCount returns how many vertices of h lie in some edge.
func coveredCount(h *hypergraph.Hypergraph) int {
	c := hypergraph.NewVertexSet(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		c = c.UnionInPlace(h.Edge(e))
	}
	return c.Count()
}
