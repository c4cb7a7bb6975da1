package solve

import (
	"context"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// kinds collects the event kinds present in a summary.
func kinds(s *telemetry.Summary) map[string]int {
	m := map[string]int{}
	for _, e := range s.Events {
		m[e.Kind]++
	}
	return m
}

// TestSolveTracedHW threads a trace through a full cached solve. The hw
// portfolio runs a single strategy (detk), so the event shape is
// deterministic: preprocess, strategy_start/end, at least one deepen,
// engine counters, and a cache miss; an identical re-query under a
// fresh trace must record a cache hit and no strategies.
func TestSolveTracedHW(t *testing.T) {
	s := NewSolver(0, 0)
	h := hypergraph.Grid(2, 3)
	ctx, tr := telemetry.WithTrace(context.Background())
	r, err := s.Solve(ctx, h, Options{Measure: HW})
	if err != nil || !r.Exact {
		t.Fatalf("solve: %v %+v", err, r)
	}
	sum := tr.Summary()
	ks := kinds(sum)
	if ks["preprocess"] != 1 || ks["strategy_start"] == 0 || ks["strategy_end"] == 0 || ks["deepen"] == 0 {
		t.Fatalf("missing trace events: %v", ks)
	}
	if ks["cache"] != 1 || sum.Counters.ResultCacheMisses != 1 {
		t.Fatalf("want one cache miss, got %v / %+v", ks, sum.Counters)
	}
	if traj := sum.KTrajectory("detk"); len(traj) == 0 {
		t.Fatal("no detk k-trajectory recorded")
	}
	if sum.Counters.EngineSubproblems == 0 {
		t.Fatalf("engine counters not threaded: %+v", sum.Counters)
	}

	ctx2, tr2 := telemetry.WithTrace(context.Background())
	r2, err := s.Solve(ctx2, h, Options{Measure: HW})
	if err != nil || !r2.FromCache {
		t.Fatalf("re-solve: %v %+v", err, r2)
	}
	sum2 := tr2.Summary()
	if sum2.Counters.ResultCacheHits != 1 || kinds(sum2)["strategy_start"] != 0 {
		t.Fatalf("cache hit not traced as such: %v %+v", kinds(sum2), sum2.Counters)
	}
}

// TestDeepenBIPTrace drives the bip deepening loop directly (no racing
// strategies) and checks the k-trajectory and the engine counters it
// flushes into the trace.
func TestDeepenBIPTrace(t *testing.T) {
	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(1)
	tr := telemetry.NewTrace()
	deepenGHDViaBIP(bctx, hypergraph.Clique(3), r, 4, tr, 0) // ghw(K3) = 2
	if !r.res.exact || r.res.upper.Cmp(lp.RI(2)) != 0 {
		t.Fatalf("bip on K3: exact=%v upper=%v, want exact 2", r.res.exact, r.res.upper)
	}
	sum := tr.Summary()
	if traj := sum.KTrajectory("bip"); len(traj) != 2 || traj[0] != 1 || traj[1] != 2 {
		t.Fatalf("bip k-trajectory = %v, want [1 2]", traj)
	}
	if c := sum.Counters; c.EngineSubproblems == 0 || c.DynResets == 0 {
		t.Fatalf("engine counters missing: %+v", c)
	}
}

// TestSATOrdFHWTrace drives the sat-ord fhw loop directly and checks the
// warm-LP and basis-cache counters it flushes into the trace.
func TestSATOrdFHWTrace(t *testing.T) {
	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(1)
	tr := telemetry.NewTrace()
	deepenSATOrdFHW(bctx, hypergraph.Clique(3), r, 4, tr, 0) // fhw(K3) = 3/2
	if !r.res.exact || r.res.upper.Cmp(lp.R(3, 2)) != 0 {
		t.Fatalf("sat-ord on K3: exact=%v upper=%v, want exact 3/2", r.res.exact, r.res.upper)
	}
	c := tr.Summary().Counters
	if c.LPSolves == 0 || c.LPSolves != c.LPCold+c.LPNoop+c.LPPrimal+c.LPDual {
		t.Fatalf("LP path mix does not partition the solves: %+v", c)
	}
	if c.BasisHits+c.BasisMisses == 0 {
		t.Fatalf("basis cache counters missing: %+v", c)
	}
}

// TestImproveYieldTraced: every strictly tighter witness local-improve
// publishes must reach the trace as well as the process counter, so
// the trace's improved/passes ratio reads the true yield. The trivial
// single-bag witness of K5 carries an integral cover of weight 3;
// repricing it fractionally tightens it to 5/2.
func TestImproveYieldTraced(t *testing.T) {
	bh := hypergraph.Clique(5)
	base := trivialDecomp(bh, FHW)
	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(1)
	r.offerUpper(base.Width(), base, "trivial-ub", ProvHeuristic)
	tr := telemetry.NewTrace()
	improveWitness(bctx, bh, r, base, ProvHeuristic, Options{Measure: FHW}, tr, 0)
	if r.res.upper.Cmp(base.Width()) >= 0 {
		t.Fatalf("Improve did not tighten the trivial witness (width %s)", base.Width().RatString())
	}
	c := tr.Summary().Counters
	if c.ApproxImproved == 0 || c.ApproxImprovePasses == 0 {
		t.Fatalf("improvement yield missing from the trace: %+v", c)
	}
}

// TestTelemetrySnapshot checks the process-wide aggregate the /healthz
// endpoint reports. Earlier tests in this package have already solved,
// so the counters must be populated and internally consistent.
func TestTelemetrySnapshot(t *testing.T) {
	s := NewSolver(0, 0)
	if _, err := s.Solve(context.Background(), hypergraph.Clique(3), Options{Measure: FHW}); err != nil {
		t.Fatal(err)
	}
	snap := TelemetrySnapshot()
	if snap.Solves == 0 || snap.Engine.Subproblems == 0 {
		t.Fatalf("empty snapshot: %+v", snap)
	}
	var wins int64
	for _, n := range snap.StrategyWins {
		wins += n
	}
	if wins == 0 {
		t.Fatalf("no strategy wins recorded: %+v", snap.StrategyWins)
	}
}

// TestSolveUntracedAllocs pins the untraced hot serving path: a result-
// cache hit must stay at its pre-telemetry allocation count (key
// canonicalization + the private result copies). The global counters it
// now also bumps are atomics and must not add a single allocation.
func TestSolveUntracedAllocs(t *testing.T) {
	s := NewSolver(0, 1)
	h := hypergraph.Grid(2, 3)
	ctx := context.Background()
	if _, err := s.Solve(ctx, h, Options{Measure: HW}); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		r, err := s.Solve(ctx, h, Options{Measure: HW})
		if err != nil || !r.FromCache {
			panic("expected cache hit")
		}
	})
	// Measured 15 allocs/run (canonKey scratch, entry adaptation, result
	// copy); the bound leaves ~50% headroom. Telemetry must not move it.
	if n > 22 {
		t.Fatalf("untraced cache-hit solve allocates %v per run, want ≤ 22", n)
	}
}

// TestTraceClosesEveryLane: when the budget expires mid-race, Solve
// returns without waiting for the lanes still running. Their trace must
// still be well formed: by the time Solve returns every strategy_start
// has exactly one strategy_end (open lanes are closed as "canceled"),
// and a straggler finishing later adds no second one.
func TestTraceClosesEveryLane(t *testing.T) {
	ctx, tr := telemetry.WithTrace(context.Background())
	if _, err := Solve(ctx, hypergraph.Grid(5, 5), Options{Measure: FHW, Timeout: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		type lane struct {
			blk  int
			name string
		}
		open := map[lane]int{}
		for _, e := range tr.Summary().Events {
			switch e.Kind {
			case "strategy_start":
				open[lane{e.Block, e.Strategy}]++
			case "strategy_end":
				open[lane{e.Block, e.Strategy}]--
			}
		}
		for l, n := range open {
			if n != 0 {
				t.Errorf("%s: lane %v has %+d starts without a matching end", when, l, n)
			}
		}
	}
	check("at return")
	time.Sleep(200 * time.Millisecond) // let stragglers finish
	check("after stragglers")
}
