package solve

import (
	"context"
	"math/big"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// TestSATOrdSolveDifferential runs full solves, with the sat-ord lanes
// racing, against the reference widths of internal/core (exact DP for
// ghw/fhw, Check(HD,k) deepening for hw): widths must agree exactly and
// witnesses must validate (Validate: true re-checks them).
func TestSATOrdSolveDifferential(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"grid3x3", hypergraph.Grid(3, 3)},
		{"grid2x5", hypergraph.Grid(2, 5)},
		{"cycle7", hypergraph.Cycle(7)},
		{"clique5", hypergraph.Clique(5)},
		{"hypercycle6-3-1", hypergraph.HyperCycle(6, 3, 1)},
	}
	reference := func(m Measure, h *hypergraph.Hypergraph) *big.Rat {
		switch m {
		case HW:
			w, _ := core.HW(h, 0)
			return lp.RI(int64(w))
		case GHW:
			w, _ := core.ExactGHW(h)
			return lp.RI(int64(w))
		}
		w, _ := core.ExactFHW(h)
		return w
	}
	for _, m := range []Measure{HW, GHW, FHW} {
		for _, tc := range cases {
			t.Run(m.String()+"/"+tc.name, func(t *testing.T) {
				got, err := Solve(context.Background(), tc.h, Options{Measure: m, Validate: true})
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				if !got.Exact {
					t.Fatalf("not exact: [%v, %v]", got.Lower, got.Upper)
				}
				if want := reference(m, tc.h); got.Upper.Cmp(want) != 0 {
					t.Fatalf("width %s (strategy %s), reference %s",
						got.Upper.RatString(), got.Strategy, want.RatString())
				}
			})
		}
	}
}

// TestSATOrdReuseFlushed asserts the acceptance criterion at the solve
// layer: an incremental deepening run reuses learned clauses and the
// reuse lands in the process-wide hg_sat_reuse_hits_total counter.
func TestSATOrdReuseFlushed(t *testing.T) {
	bh := hypergraph.Grid(3, 3) // ghw 2: k=1 rejects, k=2 accepts
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(1)

	before := TelemetrySnapshot()
	deepenSATOrdGHW(ctx, bh, r, bh.NumEdges(), nil, 0)
	after := TelemetrySnapshot()

	if !r.res.exact || r.res.upper.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("sat-ord on grid3x3: exact=%v upper=%v, want exact ghw 2", r.res.exact, r.res.upper)
	}
	if d := after.SATSolves - before.SATSolves; d < 2 {
		t.Errorf("SATSolves delta = %d, want ≥ 2 (one per level)", d)
	}
	if after.SATReuseHits <= before.SATReuseHits {
		t.Error("SATReuseHits did not increase: k-refinement dropped its learned clauses")
	}
	if after.SATLearned <= before.SATLearned {
		t.Error("SATLearned did not increase")
	}
}
