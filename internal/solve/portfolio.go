package solve

import (
	"context"
	"math/big"
	"sync"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// The portfolio races bounded strategies for one block under a shared
// context. All strategies publish into a race struct holding the
// incumbent bounds: lower bounds rise as deepening proves levels
// infeasible, upper bounds fall as heuristics and exact searches find
// witnesses, and the moment the two meet the block context is cancelled
// so the losing strategies stop burning cycles. The lane set is fixed
// per measure; only the block size gates the exact-DP lane (at most
// exactVertexLimit vertices) and the sat-ord lanes (2 to satOrdLimit
// vertices). Deepening runs up to |E| of the block: one bag covered by
// every edge bounds every width measure.
//
//	hw:   clique lower bound, then Check(HD,k) iterative deepening from
//	      the bound (detk; success at level k after failures below is
//	      exact); the sat-ord-lb ordering encoding contributes ghw-based
//	      lower bounds in parallel (ghw ≤ hw).
//	ghw:  clique lower bound; exact elimination DP (exact-dp); min-fill
//	      GHD as a fast upper bound (minfill, then local-improve); the
//	      approx-logn ladder; Check(GHD,k)-via-BIP iterative deepening
//	      (bip); sat-ord incremental ordering-encoding deepening
//	      (internal/ordenc).
//	fhw:  fractional clique lower bound; exact elimination DP; min-fill
//	      FHD and the approx-logn ladder as upper bounds, each followed
//	      by local-improve; sat-ord LP-hybrid (SAT fixes orderings, the
//	      warm LP prices bags) which refines accepted levels down to the
//	      exact fractional width. Check(FHD,k) is not a lane: it is
//	      complete only on the paper's tractable classes, so a rejection
//	      proves nothing and its acceptances only duplicate the
//	      heuristic upper bounds above.

// exactVertexLimit gates the exact elimination DP: beyond this many
// vertices per block the DP's dense tables stop paying off and the
// deepening/heuristic strategies carry the portfolio.
const exactVertexLimit = 20

// satOrdLimit gates the sat-ord strategies by block vertex count: the
// encoding is Θ(n³) clauses, which near 64 vertices is ~500k — still
// fine; beyond it the propagation alone stops paying.
const satOrdLimit = 64

// blockResult carries the outcome for one block.
type blockResult struct {
	lower    *big.Rat
	upper    *big.Rat       // nil if no witness was found within budget
	witness  *decomp.Decomp // over the block hypergraph
	exact    bool
	partial  bool // the budget expired before exactness
	strategy string
	prov     Provenance // guarantee class of the incumbent witness
}

// race is the shared incumbent state of one block's strategy race.
type race struct {
	mu     sync.Mutex
	res    blockResult
	cancel context.CancelFunc
}

// raiseLower publishes a proven lower bound.
func (r *race) raiseLower(lb *big.Rat, strategy string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	if r.res.lower == nil || lb.Cmp(r.res.lower) > 0 {
		r.res.lower = lb
	}
	r.closeIfMet(strategy)
}

// offerUpper publishes a witness of the given width with the guarantee
// class of the strategy that produced it.
func (r *race) offerUpper(w *big.Rat, d *decomp.Decomp, strategy string, prov Provenance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	if r.res.upper == nil || w.Cmp(r.res.upper) < 0 {
		r.res.upper, r.res.witness, r.res.strategy = w, d, strategy
		r.res.prov = prov
	}
	r.closeIfMet(strategy)
}

// offerExact publishes a witness proven optimal by its strategy.
func (r *race) offerExact(w *big.Rat, d *decomp.Decomp, strategy string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.exact {
		return
	}
	r.res.lower, r.res.upper, r.res.witness = w, w, d
	r.res.exact, r.res.strategy = true, strategy
	r.res.prov = ProvExact
	r.cancel()
}

// closeIfMet declares exactness when the bounds meet. Callers hold mu.
func (r *race) closeIfMet(strategy string) {
	if r.res.exact || r.res.upper == nil || r.res.lower == nil {
		return
	}
	if r.res.lower.Cmp(r.res.upper) >= 0 {
		r.res.exact = true
		r.res.prov = ProvExact
		if r.res.strategy == "" {
			r.res.strategy = strategy
		}
		r.cancel()
	}
}

// snapshotLower reads the current lower bound as an int (for deepening
// start levels).
func (r *race) snapshotLower() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.lower == nil {
		return 1
	}
	return ratCeilInt(r.res.lower)
}

// upperBelow reports whether the incumbent upper bound is ≤ k.
func (r *race) upperBelow(k int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res.upper != nil && r.res.upper.Cmp(lp.RI(int64(k))) <= 0
}

// outcome classifies how a strategy's run ended, for trace strategy_end
// events: "winner" when the strategy produced the incumbent result
// ("incumbent" when the bounds have not met yet), "canceled" when the
// race was over or the budget expired before it finished, "done"
// otherwise (ran to completion without the best result).
func (r *race) outcome(name string, ctx context.Context) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.res.strategy == name && r.res.exact:
		return "winner"
	case r.res.strategy == name:
		return "incumbent"
	case ctx.Err() != nil:
		return "canceled"
	default:
		return "done"
	}
}

// ratCeilInt returns ⌈r⌉ as an int, at least 1.
func ratCeilInt(r *big.Rat) int {
	q := new(big.Int).Div(r.Num(), r.Denom())
	k := int(q.Int64())
	if new(big.Rat).SetInt(q).Cmp(r) < 0 {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// solveBlock runs the portfolio for block blk (the index is only used
// to label trace events).
func solveBlock(ctx context.Context, bh *hypergraph.Hypergraph, opt Options, blk int) blockResult {
	tr := telemetry.FromContext(ctx)
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &race{cancel: cancel}
	r.res.lower = lp.RI(1)

	// Inline clique lower bound: cheap, and it gives the deepening
	// strategies their start level.
	nv := bh.NumVertices()
	if nv > 0 && nv <= 64 {
		if opt.Measure == FHW {
			r.raiseLower(core.FHWLowerBound(bh), "clique-lb")
		} else {
			r.raiseLower(lp.RI(int64(core.GHWLowerBound(bh))), "clique-lb")
		}
	}

	// The interval contract's floor: a single-bag witness under a
	// greedy cover, computed synchronously before any budget check so
	// even a ~1ms deadline (or an already-dead context) leaves the
	// block with a finite certified upper bound. One greedy sweep is
	// O(|E|·|V|) — cheap enough to be uncancellable.
	if d := trivialDecomp(bh, opt.Measure); d != nil {
		r.offerUpper(d.Width(), d, "trivial-ub", ProvHeuristic)
	}

	maxK := bh.NumEdges()

	type strat struct {
		name string
		run  func()
	}
	var strategies []strat
	satGate := nv > 1 && nv <= satOrdLimit
	switch opt.Measure {
	case HW:
		strategies = append(strategies, strat{"detk", func() { deepenHD(bctx, bh, r, maxK, tr, blk) }})
		if satGate {
			strategies = append(strategies, strat{"sat-ord-lb", func() { deepenSATOrdHWLower(bctx, bh, r, maxK, tr, blk) }})
		}
	case GHW:
		if nv <= exactVertexLimit {
			strategies = append(strategies, strat{"exact-dp", func() {
				if w, d, err := core.ExactGHWCtx(bctx, bh); err == nil && d != nil {
					r.offerExact(lp.RI(int64(w)), d, "exact-dp")
				}
			}})
		}
		strategies = append(strategies,
			strat{"minfill", func() {
				w, d, err := core.MinFillGHDCtx(bctx, bh)
				switch {
				case err != nil:
					strategyFailure(bctx, tr, blk, "minfill", err)
				case d == nil:
					strategyFailure(bctx, tr, blk, "minfill", errMinFillCover)
				default:
					r.offerUpper(lp.RI(int64(w)), d, "minfill", ProvHeuristic)
					improveWitness(bctx, bh, r, d, ProvHeuristic, opt, tr, blk)
				}
			}},
			strat{"approx-logn", func() { runApproxLogN(bctx, bh, r, opt, tr, blk) }},
			strat{"bip", func() { deepenGHDViaBIP(bctx, bh, r, maxK, tr, blk) }},
		)
		if satGate {
			strategies = append(strategies, strat{"sat-ord", func() { deepenSATOrdGHW(bctx, bh, r, maxK, tr, blk) }})
		}
	case FHW:
		if nv <= exactVertexLimit {
			strategies = append(strategies, strat{"exact-dp", func() {
				var ws lp.WarmStats
				w, d, err := core.ExactFHWStatsCtx(bctx, bh, &ws)
				flushLP(tr, ws)
				if err == nil && d != nil {
					r.offerExact(w, d, "exact-dp")
				}
			}})
		}
		strategies = append(strategies,
			strat{"minfill", func() {
				w, d, err := core.MinFillFHDCtx(bctx, bh)
				switch {
				case err != nil:
					strategyFailure(bctx, tr, blk, "minfill", err)
				case d == nil:
					strategyFailure(bctx, tr, blk, "minfill", errMinFillCover)
				default:
					r.offerUpper(w, d, "minfill", ProvHeuristic)
					improveWitness(bctx, bh, r, d, ProvHeuristic, opt, tr, blk)
				}
			}},
			strat{"approx-logn", func() { runApproxLogN(bctx, bh, r, opt, tr, blk) }},
		)
		if satGate {
			strategies = append(strategies, strat{"sat-ord", func() { deepenSATOrdFHW(bctx, bh, r, maxK, tr, blk) }})
		}
	}

	// Every traced strategy_start gets exactly one strategy_end: lane
	// ends go through laneMu, and once the block returns (sealed) the
	// lanes still running are closed as "canceled" and their own late
	// ends dropped. starts[i] is zeroed when lane i's end is recorded.
	var laneMu sync.Mutex
	sealed := false
	var starts []time.Time
	if tr != nil {
		starts = make([]time.Time, len(strategies))
	}
	var wg sync.WaitGroup
	for i, st := range strategies {
		wg.Add(1)
		if tr != nil {
			tr.StrategyStart(blk, st.name)
			starts[i] = time.Now()
		}
		go func(i int, st strat) {
			defer wg.Done()
			st.run()
			if tr == nil {
				return
			}
			outcome := r.outcome(st.name, bctx)
			laneMu.Lock()
			if !sealed {
				tr.StrategyEnd(blk, st.name, time.Since(starts[i]), outcome)
				starts[i] = time.Time{}
			}
			laneMu.Unlock()
		}(i, st)
	}
	// Every strategy polls its context, so on expiry they all unwind
	// within one poll interval plus at most one LP/cover solve. The
	// select still returns the incumbent snapshot immediately on ctx
	// expiry so that single uncancellable solve never pads the request
	// latency; a straggler publishing into the abandoned race afterwards
	// is harmless — its mutex outlives it and nobody reads it again.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	if tr != nil {
		laneMu.Lock()
		sealed = true
		for i, t0 := range starts {
			if !t0.IsZero() {
				tr.StrategyEnd(blk, strategies[i].name, time.Since(t0), "canceled")
			}
		}
		laneMu.Unlock()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.res.exact && ctx.Err() != nil {
		r.res.partial = true
	}
	return r.res
}

// deepenHD runs Check(HD,k) iterative deepening. Every failed level is a
// proven lower bound; the first success after failing all lower levels
// is exact.
func deepenHD(ctx context.Context, bh *hypergraph.Hypergraph, r *race, maxK int, tr *telemetry.Trace, blk int) {
	var es *core.EngineStats
	if tr != nil {
		es = &core.EngineStats{}
		defer func() { tr.AddCounters(engineCounters(es)) }()
	}
	for k := r.snapshotLower(); k <= maxK; k++ {
		mDeepenSteps.With("detk").Inc()
		tr.Deepen(blk, "detk", k)
		d, err := core.CheckHDStatsCtx(ctx, bh, k, es)
		if err != nil {
			return
		}
		if d != nil {
			r.offerExact(lp.RI(int64(k)), d, "detk")
			return
		}
		r.raiseLower(lp.RI(int64(k+1)), "detk")
		if r.upperBelow(k + 1) {
			return // bounds met; closeIfMet already declared exactness
		}
	}
}

// deepenGHDViaBIP runs Check(GHD,k) iterative deepening through the
// subedge-augmentation reduction. If the subedge closure exceeds its cap
// the strategy retires and leaves the field to the others.
func deepenGHDViaBIP(ctx context.Context, bh *hypergraph.Hypergraph, r *race, maxK int, tr *telemetry.Trace, blk int) {
	var es *core.EngineStats
	if tr != nil {
		es = &core.EngineStats{}
		defer func() { tr.AddCounters(engineCounters(es)) }()
	}
	for k := r.snapshotLower(); k <= maxK; k++ {
		mDeepenSteps.With("bip").Inc()
		tr.Deepen(blk, "bip", k)
		d, err := core.CheckGHDViaBIPCtx(ctx, bh, k, core.Options{Stats: es})
		if err != nil {
			return // context done or closure cap exceeded
		}
		if d != nil {
			r.offerExact(lp.RI(int64(k)), d, "bip")
			return
		}
		r.raiseLower(lp.RI(int64(k+1)), "bip")
		if r.upperBelow(k + 1) {
			return
		}
	}
}
