package core_test

import (
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// Allocation-regression pins for the engine's steady state, following
// the internal/hypergraph alloc_test conventions. Since PR 6 the engine
// recycles its DynComponents through a pool across runs, carves memo
// nodes and key slices from geometric arenas, and rolls the oracles'
// candidate stacks at marks — so a warmed Check(·,k) run settles at a
// small per-run count (memo map, arena chunks, decomp extraction) that
// these bounds keep from silently regressing. The bounds carry ~50%
// headroom over the measured counts (GHD ≈ 200, HD ≈ 101, FHD ≈ 6500 on
// grid 2×3; the pre-PR-6 engine sat at 289 for the GHD run). Every
// pin runs with zero-value options — the product default.

func TestCheckGHDSteadyStateAllocBound(t *testing.T) {
	g := hypergraph.Grid(2, 3)
	var opt core.Options
	core.CheckGHDViaBIP(g, 2, opt) // warm pools and arenas
	if n := testing.AllocsPerRun(30, func() {
		core.CheckGHDViaBIP(g, 2, opt)
	}); n > 300 {
		t.Fatalf("CheckGHDViaBIP allocates %v per run, want ≤ 300", n)
	}
}

func TestCheckHDSteadyStateAllocBound(t *testing.T) {
	g := hypergraph.Grid(2, 3)
	var opt core.Options
	core.CheckHDOpt(g, 3, opt)
	if n := testing.AllocsPerRun(30, func() {
		core.CheckHDOpt(g, 3, opt)
	}); n > 160 {
		t.Fatalf("CheckHDOpt allocates %v per run, want ≤ 160", n)
	}
}

func TestCheckFHDSteadyStateAllocBound(t *testing.T) {
	// The FHD run is dominated by exact-rational pivots in the cover LPs;
	// the bound is correspondingly coarser but still catches a lost
	// warm-start or a de-pooled scratch path.
	g := hypergraph.Grid(2, 3)
	k := lp.RI(2)
	var opt core.FHDOptions
	core.CheckFHD(g, k, opt)
	if n := testing.AllocsPerRun(10, func() {
		core.CheckFHD(g, k, opt)
	}); n > 9800 {
		t.Fatalf("CheckFHD allocates %v per run, want ≤ 9800", n)
	}
}

func TestCheckGHDGrid3x3AllocBound(t *testing.T) {
	// Grid(3,3) has 12 edges: the default path pinned beyond the
	// smallest grids (measured ≈ 330).
	g := hypergraph.Grid(3, 3)
	var opt core.Options
	if d, err := core.CheckGHDViaBIP(g, 2, opt); err != nil || d == nil {
		t.Fatalf("grid 3x3 must accept at k=2 (err %v)", err)
	}
	if n := testing.AllocsPerRun(10, func() {
		core.CheckGHDViaBIP(g, 2, opt)
	}); n > 500 {
		t.Fatalf("CheckGHDViaBIP allocates %v per run, want ≤ 500", n)
	}
}
