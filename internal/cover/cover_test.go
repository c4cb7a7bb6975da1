package cover

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

func TestCliqueCoverNumbers(t *testing.T) {
	// Lemma 2.3: ρ(K_2n) = ρ*(K_2n) = n.
	for n := 1; n <= 5; n++ {
		k := hypergraph.Clique(2 * n)
		if got := Rho(k); got != n {
			t.Errorf("ρ(K_%d) = %d, want %d", 2*n, got, n)
		}
		if got := RhoStar(k); got.Cmp(lp.RI(int64(n))) != 0 {
			t.Errorf("ρ*(K_%d) = %v, want %d", 2*n, got, n)
		}
	}
	// Odd cliques: ρ*(K_2n+1) = (2n+1)/2 < ρ = n+1.
	k5 := hypergraph.Clique(5)
	if got := RhoStar(k5); got.Cmp(lp.R(5, 2)) != 0 {
		t.Errorf("ρ*(K5) = %v, want 5/2", got)
	}
	if got := Rho(k5); got != 3 {
		t.Errorf("ρ(K5) = %d, want 3", got)
	}
}

func TestExample51Support(t *testing.T) {
	// Example 5.1: ρ*(H_n) = 2 - 1/n with support n+1.
	for n := 2; n <= 6; n++ {
		h := hypergraph.UnboundedSupport(n)
		want := new(big.Rat).Sub(lp.RI(2), lp.R(1, int64(n)))
		w, cov := FractionalEdgeCover(h, h.Vertices())
		if w.Cmp(want) != 0 {
			t.Errorf("ρ*(H_%d) = %v, want %v", n, w, want)
		}
		if cov.Covered(h).Count() != n+1 {
			t.Errorf("cover of H_%d does not cover all vertices", n)
		}
		// The optimal cover shown in the paper has support n+1; any
		// optimal cover must have support > n (no n edges of weight <1
		// suffice, and integral covers cost 2).
		if len(cov.Support()) < 2 {
			t.Errorf("suspicious support %v", cov.Support())
		}
	}
}

func TestEdgeCoverTarget(t *testing.T) {
	h := hypergraph.ExampleH0()
	// Bag {v3,v6,v7,v9,v10} (Figure 6(b) root) is covered by {e2,e6}.
	bag := hypergraph.NewVertexSet(h.NumVertices())
	for _, n := range []string{"v3", "v6", "v7", "v9", "v10"} {
		v, _ := h.VertexID(n)
		bag.Add(v)
	}
	c := EdgeCover(h, bag, 0)
	if len(c) != 2 {
		t.Fatalf("ρ(bag) = %d, want 2", len(c))
	}
	if got := EdgeCover(h, bag, 1); got != nil {
		t.Fatal("no single edge covers the bag")
	}
	w, _ := FractionalEdgeCover(h, bag)
	if w.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("ρ*(bag) = %v, want 2", w)
	}
}

func TestGreedyVsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 10, 7, 4, 2)
		exact := EdgeCover(h, h.Vertices(), 0)
		greedy := GreedyEdgeCover(h, h.Vertices())
		if exact == nil || greedy == nil {
			return exact == nil && greedy == nil
		}
		// Greedy is a valid cover at least as large as the optimum.
		u := h.UnionOfEdges(greedy)
		return h.Vertices().IsSubsetOf(u) && len(greedy) >= len(exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRhoStarLeqRho(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 9, 6, 4, 2)
		rs := RhoStar(h)
		r := Rho(h)
		if rs == nil || r < 0 {
			return rs == nil && r < 0
		}
		return rs.Cmp(lp.RI(int64(r))) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexCoverDuality(t *testing.T) {
	// τ*(H) = ρ*(H^d) and τ(H) = ρ(H^d) on reduced hypergraphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, _ := hypergraph.RandomBIP(rng, 8, 5, 3, 2).Reduce()
		tw, _ := FractionalVertexCover(h)
		rs := RhoStar(h.Dual())
		if tw == nil || rs == nil {
			return false
		}
		return tw.Cmp(rs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundSupport(t *testing.T) {
	// Build a deliberately wasteful cover of H0 and shrink its support.
	h := hypergraph.ExampleH0()
	gamma := Fractional{}
	for e := 0; e < h.NumEdges(); e++ {
		gamma[e] = lp.R(1, 2)
	}
	before := gamma.Covered(h)
	d := h.Degree()
	out := BoundSupport(h, gamma)
	after := out.Covered(h)
	if !before.IsSubsetOf(after) {
		t.Fatal("BoundSupport lost covered vertices")
	}
	if out.Weight().Cmp(gamma.Weight()) > 0 {
		t.Fatalf("BoundSupport increased weight: %v > %v", out.Weight(), gamma.Weight())
	}
	// Corollary 5.5: support ≤ d · ρ*(B(γ)). ρ*(V(H0)) = 4 and d = 3.
	w, _ := FractionalEdgeCover(h, before)
	bound := new(big.Rat).Mul(w, lp.RI(int64(d)))
	if lp.RI(int64(len(out.Support()))).Cmp(bound) > 0 {
		t.Fatalf("support %d exceeds d·ρ* = %v", len(out.Support()), bound)
	}
}

func TestQuickBoundSupportInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBoundedDegree(rng, 10, 7, 3, 3)
		w, gamma := FractionalEdgeCover(h, h.Vertices())
		if w == nil {
			return true
		}
		out := BoundSupport(h, gamma)
		if !gamma.Covered(h).IsSubsetOf(out.Covered(h)) {
			return false
		}
		if out.Weight().Cmp(gamma.Weight()) > 0 {
			return false
		}
		// Füredi: |supp| ≤ d·ρ* for optimal covers of the reduced bag.
		bound := new(big.Rat).Mul(w, lp.RI(int64(h.Degree())))
		return lp.RI(int64(len(out.Support()))).Cmp(bound) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionalCoverWeights(t *testing.T) {
	// Weights returned are a valid cover: recompute B(γ) and compare.
	h := hypergraph.Clique(5)
	w, cov := FractionalEdgeCover(h, h.Vertices())
	if w == nil {
		t.Fatal("no cover")
	}
	if !h.Vertices().IsSubsetOf(cov.Covered(h)) {
		t.Fatal("returned cover does not cover the target")
	}
	if !cov.IsIntegral() && cov.Weight().Cmp(w) != 0 {
		t.Fatal("weight mismatch")
	}
}

func TestUncoverable(t *testing.T) {
	h := hypergraph.New()
	h.Vertex("isolated")
	h.AddEdge("e", "a", "b")
	if w, _ := FractionalEdgeCover(h, h.Vertices()); w != nil {
		t.Fatal("isolated vertex must be uncoverable")
	}
	if Rho(h) != -1 {
		t.Fatal("ρ must be -1 for uncoverable hypergraph")
	}
}

// TestFractionalCloneSharesWeights: a clone is a new map over shared,
// never-mutated weights, with every weight 1 collapsed onto one value,
// and editing the clone's map leaves the original alone.
func TestFractionalCloneSharesWeights(t *testing.T) {
	half := lp.R(1, 2)
	f := Fractional{0: lp.RI(1), 1: half, 2: lp.RI(1)}
	c := f.Clone()
	if c[1] != half || c[0] != c[2] || c[0].Cmp(lp.RI(1)) != 0 {
		t.Fatalf("clone weights %v, want the half shared and one shared 1", c)
	}
	c[1] = lp.RI(1)
	delete(c, 2)
	if f[1] != half || len(f) != 3 {
		t.Fatalf("editing the clone changed the original: %v", f)
	}
}
