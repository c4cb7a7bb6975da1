package cover

import (
	"math/big"
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// TestIncrementalMatchesSolveCoverLP walks a random DFS of atom stacks
// and compares every warm solve against the one-shot SolveCoverLP on an
// equivalent hypergraph.
func TestIncrementalMatchesSolveCoverLP(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 8, 6, 4, 2)
		scope := h.Vertices()
		ic := NewIncremental(scope)

		// Atoms: the edges of h plus a few random subsets.
		var atoms []hypergraph.VertexSet
		for e := 0; e < h.NumEdges(); e++ {
			atoms = append(atoms, h.Edge(e))
		}
		check := func(stack []int) {
			if len(stack) == 0 {
				return
			}
			got := ic.Solve()
			if got == nil {
				t.Fatal("incremental solve failed")
			}
			// Reference: a scratch hypergraph whose edges are the stacked
			// atoms, covering their union.
			ref := hypergraph.New()
			for v := 0; v < h.NumVertices(); v++ {
				ref.Vertex(h.VertexName(v))
			}
			union := hypergraph.NewVertexSet(h.NumVertices())
			var es []int
			for i, ai := range stack {
				ref.AddEdgeSet("", atoms[ai])
				union = union.UnionInPlace(atoms[ai])
				es = append(es, i)
			}
			want, x := SolveCoverLP(ref, es, union)
			if want == nil {
				t.Fatal("reference cover LP failed")
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d: incremental %v ≠ reference %v (stack %v)",
					seed, got.RatString(), want.RatString(), stack)
			}
			// The duals must certify the same weight and cover the union.
			sum := new(big.Rat)
			weights := make(map[int]*big.Rat)
			for i := range stack {
				d := ic.Dual(i)
				if d.Sign() < 0 {
					t.Fatal("negative cover weight")
				}
				sum.Add(sum, d)
				weights[i] = new(big.Rat).Set(d)
			}
			if sum.Cmp(got) != 0 {
				t.Fatalf("dual weights sum to %v, optimum %v", sum, got)
			}
			one := lp.RI(1)
			bad := false
			union.ForEach(func(v int) bool {
				acc := new(big.Rat)
				for i, ai := range stack {
					if atoms[ai].Has(v) {
						acc.Add(acc, weights[i])
					}
				}
				if acc.Cmp(one) < 0 {
					bad = true
					return false
				}
				return true
			})
			if bad {
				t.Fatalf("seed %d: dual weights do not cover the union", seed)
			}
			_ = x
		}

		var stack []int
		var walk func(depth int)
		walk = func(depth int) {
			check(stack)
			if depth == 0 {
				return
			}
			for trial := 0; trial < 2; trial++ {
				ai := rng.Intn(len(atoms))
				stack = append(stack, ai)
				ic.Push(ai, atoms[ai])
				walk(depth - 1)
				ic.Pop()
				stack = stack[:len(stack)-1]
			}
		}
		walk(3)
		if st := ic.Stats(); st.WarmSolves == 0 {
			t.Fatal("DFS never took the warm path")
		}
	}
}

// TestTargetLPMatchesFractionalEdgeCover drifts a target set around a
// random hypergraph and compares every warm ρ*(target) against the
// one-shot FractionalEdgeCover.
func TestTargetLPMatchesFractionalEdgeCover(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hypergraph.RandomBIP(rng, 9, 6, 3, 2)
		scope := h.Vertices()
		tl := NewTargetLP(h, scope)
		vs := scope.Vertices()
		ws := hypergraph.NewVertexSet(h.NumVertices())
		for step := 0; step < 15; step++ {
			v := vs[rng.Intn(len(vs))]
			if ws.Has(v) {
				ws.Remove(v)
			} else {
				ws.Add(v)
			}
			gotW, gotG := tl.Solve(ws)
			wantW, _ := FractionalEdgeCover(h, ws)
			if (gotW == nil) != (wantW == nil) {
				t.Fatalf("seed %d: solvability mismatch on %v", seed, ws)
			}
			if gotW == nil {
				continue
			}
			if gotW.Cmp(wantW) != 0 {
				t.Fatalf("seed %d: ρ*(%v) = %v, want %v", seed, ws, gotW.RatString(), wantW.RatString())
			}
			// The returned cover must be optimal and actually cover ws.
			if gotG.Weight().Cmp(wantW) != 0 {
				t.Fatalf("cover weight %v ≠ optimum %v", gotG.Weight(), wantW)
			}
			if !ws.IsSubsetOf(gotG.Covered(h)) {
				t.Fatalf("seed %d: cover misses target vertices", seed)
			}
		}
		if st := tl.Stats(); st.WarmSolves == 0 {
			t.Fatal("target drift never took the warm path")
		}
	}
}

// TestTargetLPUncoverable: a vertex in no edge must be reported as
// uncoverable, and recoverably so once it leaves the target.
func TestTargetLPUncoverable(t *testing.T) {
	h := hypergraph.New()
	a := h.Vertex("a")
	b := h.Vertex("b")
	iso := h.Vertex("iso")
	h.AddEdgeSet("e", hypergraph.SetOf(a, b))
	tl := NewTargetLP(h, h.Vertices())
	if w, _ := tl.Solve(hypergraph.SetOf(a, iso)); w != nil {
		t.Fatal("isolated vertex must be uncoverable")
	}
	w, g := tl.Solve(hypergraph.SetOf(a, b))
	if w == nil || w.Cmp(lp.RI(1)) != 0 || len(g) != 1 {
		t.Fatalf("ρ*({a,b}) = %v (%v), want 1 via e", w, g)
	}
}

// TestSolveCanceledThroughDone: a closed done channel makes both
// solvers give up at the first pivot, and Reset/Retarget drop the
// channel so a recycled solver answers normally again.
func TestSolveCanceledThroughDone(t *testing.T) {
	h := hypergraph.Grid(3, 3)
	want := RhoStar(h)
	done := make(chan struct{})
	close(done)

	tl := NewTargetLP(h, h.Vertices())
	tl.SetDone(done)
	if w, g := tl.Solve(h.Vertices()); w != nil || g != nil {
		t.Fatalf("canceled TargetLP solved: %v", w)
	}
	tl.Reset(h, h.Vertices())
	if w, _ := tl.Solve(h.Vertices()); w == nil || w.Cmp(want) != 0 {
		t.Fatalf("after Reset: ρ* = %v, want %v", w, want)
	}

	ic := NewIncremental(h.Vertices())
	push := func() {
		for e := 0; e < h.NumEdges(); e++ {
			ic.Push(e, h.Edge(e))
		}
	}
	push()
	ic.SetDone(done)
	if w := ic.Solve(); w != nil {
		t.Fatalf("canceled Incremental solved: %v", w)
	}
	ic.Retarget()
	push()
	if w := ic.Solve(); w == nil || w.Cmp(want) != 0 {
		t.Fatalf("after Retarget: weight %v, want %v", w, want)
	}
}
