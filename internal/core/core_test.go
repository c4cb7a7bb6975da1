package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

func TestCheckHDPath(t *testing.T) {
	h := hypergraph.Path(6)
	d := CheckHD(h, 1)
	if d == nil {
		t.Fatal("paths are acyclic: hw = 1")
	}
	if err := d.Validate(decomp.HD); err != nil {
		t.Fatal(err)
	}
}

func TestCheckHDCycle(t *testing.T) {
	h := hypergraph.Cycle(6)
	if CheckHD(h, 1) != nil {
		t.Fatal("cycles have hw 2, not 1")
	}
	d := CheckHD(h, 2)
	if d == nil {
		t.Fatal("hw(C6) = 2")
	}
	if err := d.Validate(decomp.HD); err != nil {
		t.Fatal(err)
	}
}

func TestExampleH0Widths(t *testing.T) {
	// The central facts of Example 4.3: hw(H0) = 3 > ghw(H0) = 2.
	h := hypergraph.ExampleH0()
	hw, hd := HW(h, 4)
	if hw != 3 {
		t.Fatalf("hw(H0) = %d, want 3", hw)
	}
	if err := hd.Validate(decomp.HD); err != nil {
		t.Fatal(err)
	}
	ghw, ghd := ExactGHW(h)
	if ghw != 2 {
		t.Fatalf("ghw(H0) = %d, want 2", ghw)
	}
	if err := ghd.Validate(decomp.GHD); err != nil {
		t.Fatal(err)
	}
	// fhw ≤ ghw; for H0 the fractional relaxation also gives 2... compute.
	fhw, fhd := ExactFHW(h)
	if fhw.Cmp(lp.RI(2)) > 0 {
		t.Fatalf("fhw(H0) = %v > ghw", fhw)
	}
	if err := fhd.Validate(decomp.FHD); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGHDViaBIPOnH0(t *testing.T) {
	h := hypergraph.ExampleH0()
	// ghw = 2: width-2 GHD found via BIP augmentation.
	d, err := CheckGHDViaBIP(h, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("ghw(H0) = 2; BIP check must find a width-2 GHD")
	}
	if err := d.ValidateWidth(decomp.GHD, lp.RI(2)); err != nil {
		t.Fatal(err)
	}
	// No width-1 GHD (H0 is cyclic).
	d1, err := CheckGHDViaBIP(h, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != nil {
		t.Fatal("H0 is cyclic; ghw > 1")
	}
}

func TestExactWidthsOnKnownFamilies(t *testing.T) {
	// Cliques: ghw(K_n) = fhw... bags must contain the whole clique
	// (Lemma 2.8), so fhw(K_n) = ρ*(K_n) = n/2 and ghw(K_n) = ⌈n/2⌉.
	for n := 3; n <= 10; n++ {
		k := hypergraph.Clique(n)
		fhw, _ := ExactFHW(k)
		if fhw.Cmp(lp.R(int64(n), 2)) != 0 {
			t.Errorf("fhw(K%d) = %v, want %d/2", n, fhw, n)
		}
		if n > 6 {
			continue
		}
		ghw, _ := ExactGHW(k)
		if ghw != (n+1)/2 {
			t.Errorf("ghw(K%d) = %d, want %d", n, ghw, (n+1)/2)
		}
	}
	// Cycles: ghw = fhw... fhw(C_n) ≥ ... for n ≥ 4, ghw(C_n) = 2.
	c := hypergraph.Cycle(7)
	if g, _ := ExactGHW(c); g != 2 {
		t.Errorf("ghw(C7) = %d, want 2", g)
	}
	// fhw(C_n) = 2 for n ≥ 4: the ends of a 3-vertex path bag share no
	// edge, so the fractional cover cannot drop below 2.
	for n := 4; n <= 16; n++ {
		if f, _ := ExactFHW(hypergraph.Cycle(n)); f.Cmp(lp.RI(2)) != 0 {
			t.Errorf("fhw(C%d) = %v, want 2", n, f)
		}
	}
	// Acyclic: width 1.
	p := hypergraph.Path(5)
	if g, _ := ExactGHW(p); g != 1 {
		t.Errorf("ghw(path) = %d, want 1", g)
	}
	if f, _ := ExactFHW(p); f.Cmp(lp.RI(1)) != 0 {
		t.Errorf("fhw(path) = %v, want 1", f)
	}
	// Triangle as a graph: fhw = 3/2 (cover the forced triangle bag
	// fractionally), ghw = 2.
	tri := hypergraph.Clique(3)
	if f, _ := ExactFHW(tri); f.Cmp(lp.R(3, 2)) != 0 {
		t.Errorf("fhw(K3) = %v, want 3/2", f)
	}
}

func TestWidthHierarchy(t *testing.T) {
	// fhw ≤ ghw ≤ hw on random small hypergraphs (Section 1), and all
	// returned decompositions validate.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 6, 3, 2)
		fhw, fd := ExactFHW(h)
		ghw, gd := ExactGHW(h)
		hw, hd := HW(h, 0)
		if fhw == nil || gd == nil || hd == nil {
			return false
		}
		if fd.Validate(decomp.FHD) != nil || gd.Validate(decomp.GHD) != nil || hd.Validate(decomp.HD) != nil {
			return false
		}
		if fhw.Cmp(lp.RI(int64(ghw))) > 0 || ghw > hw {
			return false
		}
		// ghw ≤ 3·hw + 1 trivially holds; also hw ≤ 3·ghw + 1 ([4]).
		return hw <= 3*ghw+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGHDAgreesWithExact(t *testing.T) {
	// Cross-validation: the BIP-based Check(GHD,k) agrees with the
	// exact elimination DP on random BIP hypergraphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 5, 3, 1)
		ghw, _ := ExactGHW(h)
		for k := 1; k <= 3; k++ {
			d, err := CheckGHDViaBIP(h, k, Options{})
			if err != nil {
				return false
			}
			if (d != nil) != (ghw <= k) {
				return false
			}
			if d != nil && d.Validate(decomp.GHD) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGHDExactSmall(t *testing.T) {
	h := hypergraph.ExampleH0()
	d, err := CheckGHDExact(h, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("f+ augmentation must find ghw(H0) = 2")
	}
	if err := d.Validate(decomp.GHD); err != nil {
		t.Fatal(err)
	}
}

func TestGHWViaBIPGrid(t *testing.T) {
	// Grids have 1-BIP; ghw(3×3 grid) = 2... verified against exact DP.
	g := hypergraph.Grid(3, 3)
	wantGHW, _ := ExactGHW(g)
	got, d, err := GHWViaBIP(g, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantGHW {
		t.Fatalf("GHWViaBIP(grid3x3) = %d, exact = %d", got, wantGHW)
	}
	if err := d.Validate(decomp.GHD); err != nil {
		t.Fatal(err)
	}
}

func TestSubedgeClosures(t *testing.T) {
	h := hypergraph.ExampleH0()
	subs, err := BIPSubedges(h, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Example 4.4: e'2 = {v3,v9} must be in the closure (it is
	// e2 ∩ (e3 ∪ e7)).
	v3, _ := h.VertexID("v3")
	v9, _ := h.VertexID("v9")
	want := hypergraph.SetOf(v3, v9)
	found := false
	for _, s := range subs {
		if s.Equal(want) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("BIP subedge closure must contain e2 ∩ (e3 ∪ e7) = {v3,v9}")
	}
	// Every output is a proper subedge of some edge.
	for _, s := range subs {
		ok := false
		for e := 0; e < h.NumEdges(); e++ {
			if s.IsSubsetOf(h.Edge(e)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatal("closure contains a non-subedge")
		}
	}
	// The cap triggers.
	if _, err := BIPSubedges(h, 2, 3); err == nil {
		t.Fatal("cap must trigger on H0")
	}
	full, err := FullSubedgeClosure(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	// H0 has 6 rank-3 edges (6 proper non-empty subsets each, 7 counting
	// itself... subsets include the edge itself) and 2 rank-2 edges.
	if len(full) == 0 {
		t.Fatal("empty full closure")
	}
}

func TestAugmentOriginTracking(t *testing.T) {
	h := hypergraph.ExampleH0()
	v3, _ := h.VertexID("v3")
	v9, _ := h.VertexID("v9")
	aug := Augment(h, []hypergraph.VertexSet{hypergraph.SetOf(v3, v9)})
	if aug.H.NumEdges() != h.NumEdges()+1 {
		t.Fatalf("augmented edge count %d", aug.H.NumEdges())
	}
	sub := aug.H.NumEdges() - 1
	if !aug.H.Edge(sub).IsSubsetOf(h.Edge(aug.Origin[sub])) {
		t.Fatal("origin is not a superset of the subedge")
	}
	// Duplicates and empties are dropped.
	aug2 := Augment(h, []hypergraph.VertexSet{h.Edge(0).Clone(), hypergraph.NewVertexSet(4)})
	if aug2.H.NumEdges() != h.NumEdges() {
		t.Fatal("duplicate/empty subedges must be dropped")
	}
}
