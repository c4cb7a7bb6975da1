package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// TestExactFHWWitnessBagsMatchColdLP: the warm pricing LP must give
// every witness bag a cover whose weight is the cold ρ* of that bag, and
// the witness must validate at the returned width.
func TestExactFHWWitnessBagsMatchColdLP(t *testing.T) {
	cases := map[string]*hypergraph.Hypergraph{
		"clique7":     hypergraph.Clique(7),
		"grid3x4":     hypergraph.Grid(3, 4),
		"hypercycle6": hypergraph.HyperCycle(6, 3, 1),
		"hypercycle5": hypergraph.HyperCycle(5, 4, 2),
		"antibmip4":   hypergraph.AntiBMIP(4),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases[fmt.Sprintf("bip%d", seed)] = hypergraph.RandomBIP(rng, 10, 9, 4, 2)
	}
	for name, h := range cases {
		w, d := ExactFHW(h)
		if w == nil || d == nil {
			t.Fatalf("%s: no fhw", name)
		}
		if err := d.ValidateWidth(decomp.FHD, w); err != nil {
			t.Fatalf("%s: witness at %s: %v", name, w.RatString(), err)
		}
		for i, nd := range d.Nodes {
			cold, _ := cover.FractionalEdgeCover(h, nd.Bag)
			if got := nd.Cover.Weight(); got.Cmp(cold) != 0 {
				t.Errorf("%s: bag %d %v: cover weight %s, cold ρ* %s",
					name, i, nd.Bag, got.RatString(), cold.RatString())
			}
		}
	}
}

// TestExactFHWCanceledNeverReturnsWidth: a deadline that lands anywhere in
// the DP or inside one of its warm LP solves yields ctx.Err() and no
// width; a canceled LP solve must not be mistaken for an infeasible bag.
func TestExactFHWCanceledNeverReturnsWidth(t *testing.T) {
	h := hypergraph.Grid(4, 5)
	for _, after := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), after)
		start := time.Now()
		w, d, err := ExactFHWCtx(ctx, h)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || w != nil || d != nil {
			t.Fatalf("canceled after %v: got (%v, %v, %v), want (nil, nil, DeadlineExceeded)", after, w, d != nil, err)
		}
		if elapsed := time.Since(start); elapsed > after+2*time.Second {
			t.Fatalf("canceled after %v: unwound only after %v", after, elapsed)
		}
	}
}

// TestExactFHWStatsSink: the sink receives the pricing LP's counters,
// on a finished run and on a canceled one.
func TestExactFHWStatsSink(t *testing.T) {
	var ws lp.WarmStats
	w, _, err := ExactFHWStatsCtx(context.Background(), hypergraph.Grid(3, 4), &ws)
	if err != nil || w.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("ExactFHWStatsCtx(grid3x4) = (%v, %v), want 2", w, err)
	}
	if ws.Solves == 0 || ws.ColdStarts != 1 {
		t.Fatalf("finished run: stats %+v, want solves > 0 from one cold start", ws)
	}

	ws = lp.WarmStats{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := ExactFHWStatsCtx(ctx, hypergraph.Grid(4, 5), &ws); err == nil {
		t.Fatal("grid4x5 under 20ms: want a deadline error")
	}
	if ws.Solves == 0 {
		t.Fatalf("canceled run: stats %+v, want the solves made before the deadline", ws)
	}
}

// TestExactFHWCanceledSolveUnwinds pins the two places a canceled
// pricing-LP solve can surface outside f's own polling: a bag cost (which
// would otherwise be memoized as infeasible) and a witness bag's cover
// (which would otherwise publish a witness without one). Both must
// unwind with the canceled sentinel.
func TestExactFHWCanceledSolveUnwinds(t *testing.T) {
	h := hypergraph.Grid(3, 3)
	dead := make(chan struct{})
	close(dead)
	unwinds := func(f func()) bool {
		r := func() (r any) {
			defer func() { r = recover() }()
			f()
			return nil
		}()
		_, ok := r.(canceled)
		return ok
	}

	s := newExactState(h, false)
	s.stopCh = dead
	if !unwinds(func() { s.bagCost(h.Vertices()) }) {
		t.Fatal("canceled bag cost returned instead of unwinding")
	}

	// Fill the DP table uncanceled, then cancel before reconstruction.
	s = newExactState(h, false)
	full := uint64(1)<<uint(h.NumVertices()) - 1
	s.f(full)
	s.stopCh = dead
	s.pricingLP().SetDone(dead)
	if !unwinds(func() { s.run() }) {
		t.Fatal("witness reconstruction under a canceled LP returned instead of unwinding")
	}
}
