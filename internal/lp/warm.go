package lp

// warm.go — an incremental simplex engine. The covering LPs of the
// fractional-width searches come in long related sequences (support
// guesses growing one subedge at a time, Ws targets toggling one vertex
// at a time), so WarmProblem keeps the previous optimum's tableau alive
// and re-solves in a few pivots. It handles the shape of every covering
// dual here,
//
//	maximize c·x  subject to  Ax ≤ b,  x ≥ 0,  b ≥ 0,
//
// whose slack basis is always primal feasible: no phase 1, never
// infeasible. After edits a primal-feasible tableau re-optimizes with
// the primal simplex, a dual-feasible one (the common case after adding
// a row) with the dual simplex, and a stale one restarts cold.

import "math/big"

// WarmStats counts what the engine did. ColdStarts, NoopSolves (basis
// still optimal), PrimalSolves and DualSolves partition Solves by the
// path that finished each; a warm dual attempt that trips its cap falls
// back cold. A canceled solve counts only its pivots and promotions.
type WarmStats struct {
	Solves       int // completed Solve calls
	ColdStarts   int // solves that rebuilt the tableau from the slack basis
	WarmSolves   int // solves resumed from the previous basis
	NoopSolves   int // warm solves whose basis was already optimal
	PrimalSolves int // warm solves finished by the primal simplex
	DualSolves   int // warm solves finished by the dual simplex
	PrimalPivots int
	DualPivots   int
	Promotions   int // tableaus whose entries outgrew int64
}

// Add accumulates o into s (for aggregating stats across solvers).
func (s *WarmStats) Add(o WarmStats) {
	s.Solves += o.Solves
	s.ColdStarts += o.ColdStarts
	s.WarmSolves += o.WarmSolves
	s.NoopSolves += o.NoopSolves
	s.PrimalSolves += o.PrimalSolves
	s.DualSolves += o.DualSolves
	s.PrimalPivots += o.PrimalPivots
	s.DualPivots += o.DualPivots
	s.Promotions += o.Promotions
}

// warmRow is one live constraint, kept raw for cold rebuilds.
type warmRow struct {
	id    int
	coef  []*big.Rat // dense over structural variables; nil entries = 0
	rhs   *big.Rat
	scale *big.Int // the row enters the tableau multiplied by this; nil = 1
	slack int      // live slack column, -1 when the tableau is down
}

// WarmProblem is an incremental LP: maximize Objective·x subject to
// AddRow'd ≤-constraints with non-negative RHS and x ≥ 0.
type WarmProblem struct {
	nVars int
	obj   []*big.Rat
	rows  []*warmRow
	byID  map[int]*warmRow
	nxtID int

	// The cost row holds the reduced costs of minimizing -Objective times
	// objScale, its common denominator; the RHS entry is the objective
	// value. freeCols holds retired slack columns, zero everywhere.
	live     bool
	t        tableau
	objScale *big.Int // nil = 1
	freeCols []int
	stats    WarmStats
}

// NewWarm returns an empty warm problem over n non-negative variables
// with a zero objective.
func NewWarm(n int) *WarmProblem {
	w := &WarmProblem{byID: map[int]*warmRow{}}
	w.Reset(n)
	return w
}

// Reset reconfigures w to n variables, a zero objective and no rows,
// retaining the allocated tableau storage for reuse.
func (w *WarmProblem) Reset(n int) {
	w.nVars = n
	for len(w.obj) < n {
		w.obj = append(w.obj, new(big.Rat))
	}
	for j := 0; j < n; j++ {
		w.obj[j].SetInt64(0)
	}
	for _, r := range w.rows {
		delete(w.byID, r.id)
	}
	w.rows = w.rows[:0]
	w.dropTableau()
}

// SetDone installs a channel polled before every pivot of later solves;
// once it is closed Solve returns ErrCanceled. nil disables polling.
func (w *WarmProblem) SetDone(done <-chan struct{}) { w.t.done = done }

// dropTableau marks the tableau down so the next Solve cold-starts.
func (w *WarmProblem) dropTableau() {
	w.live = false
	for _, r := range w.rows {
		r.slack = -1
	}
}

// NumVars returns the number of structural variables.
func (w *WarmProblem) NumVars() int { return w.nVars }

// NumRows returns the number of live constraints.
func (w *WarmProblem) NumRows() int { return len(w.rows) }

// Stats returns cumulative engine counters.
func (w *WarmProblem) Stats() WarmStats {
	s := w.stats
	s.Promotions = w.t.promotions
	return s
}

// SetObjective sets the objective coefficient of variable j, updating
// the live reduced costs in place so the next Solve can resume warm (an
// objective change never disturbs primal feasibility).
func (w *WarmProblem) SetObjective(j int, c *big.Rat) {
	old, nw := w.obj[j].Num(), c.Num()
	small := w.objScale == nil && c.IsInt() && old.IsInt64() && nw.IsInt64() &&
		mag(old.Int64()) < tinyLim && mag(nw.Int64()) < tinyLim
	step := num{v: old.Int64() - nw.Int64()}
	w.obj[j].Set(c)
	switch {
	case !w.live:
	case !small:
		w.objScale = w.t.price(w.obj[:w.nVars], true)
	case step.v != 0:
		// obj_j += δ lowers the internal cost of j by δ; if j is basic,
		// pricing its row out again spreads that over the cost row.
		w.t.addCell(-1, j, step)
		if r := w.t.colRow[j]; r >= 0 {
			w.t.update(-1, r, j)
		}
	}
}

// AddRow appends the constraint Σ coef[j]·x_j ≤ rhs (missing or nil
// coefficients are zero; rhs must be ≥ 0) and returns its row id. On a
// live tableau the row is expressed in the current basis at once, so
// the next Solve resumes from the previous optimum.
func (w *WarmProblem) AddRow(coef []*big.Rat, rhs *big.Rat) int {
	if rhs.Sign() < 0 {
		panic("lp: WarmProblem rows require non-negative RHS")
	}
	r := &warmRow{id: w.nxtID, coef: make([]*big.Rat, w.nVars), rhs: new(big.Rat).Set(rhs), slack: -1}
	for j, c := range coef[:min(len(coef), w.nVars)] {
		if c != nil && c.Sign() != 0 {
			r.coef[j] = new(big.Rat).Set(c)
		}
	}
	r.scale = denomLCM(r.coef, r.rhs)
	w.nxtID++
	w.rows = append(w.rows, r)
	w.byID[r.id] = r
	if w.live {
		s := w.allocCol()
		i := w.t.addRow()
		w.load(i, r, s)
		w.t.express(i)
		w.t.setBasic(i, s)
	}
	return r.id
}

// load writes row r with unit slack s into tableau row i.
func (w *WarmProblem) load(i int, r *warmRow, s int) {
	r.slack = s
	w.t.putRow(i, r.coef, r.rhs, r.scale, false)
	w.t.put(i, s, num{v: 1})
}

// RetireRow removes the constraint with the given id. On a live tableau
// its slack is first pivoted into the basis if needed, which may leave
// the basis stale (the next Solve then restarts cold).
func (w *WarmProblem) RetireRow(id int) {
	r, ok := w.byID[id]
	if !ok {
		panic("lp: RetireRow on unknown row id")
	}
	delete(w.byID, id)
	for i, rr := range w.rows {
		if rr == r {
			w.rows[i] = w.rows[len(w.rows)-1]
			w.rows = w.rows[:len(w.rows)-1]
			break
		}
	}
	if !w.live {
		return
	}
	t, s := &w.t, r.slack
	tr := t.colRow[s]
	for q := 0; tr < 0 && q < len(t.rows); q++ {
		// Row operations are invertible, so some row has the slack.
		if t.sign(q, s) != 0 {
			t.pivot(q, s)
			tr = q
		}
	}
	if tr < 0 {
		w.dropTableau() // defensive: cannot happen
		return
	}
	// The basic slack's column is zero outside row tr, so dropping both
	// removes exactly this constraint; being a unit column of the integer
	// matrix, it leaves the basis determinant — the denominator — as is.
	t.dropRow(tr)
	w.freeCols = append(w.freeCols, s)
}

// allocCol returns a zeroed column slot, reusing retired slack slots so
// the tableau width stays bounded by the peak live row count.
func (w *WarmProblem) allocCol() int {
	if n := len(w.freeCols); n > 0 {
		c := w.freeCols[n-1]
		w.freeCols = w.freeCols[:n-1]
		return c
	}
	return w.t.addCol()
}

// coldStart rebuilds the tableau from the raw rows on the slack basis.
func (w *WarmProblem) coldStart() {
	t := &w.t
	t.reset(w.nVars + len(w.rows))
	w.freeCols = w.freeCols[:0]
	for i, r := range w.rows {
		t.addRow()
		w.load(i, r, w.nVars+i)
		t.setBasic(i, w.nVars+i)
	}
	w.objScale = t.price(w.obj[:w.nVars], true) // minimize -Objective
	w.live = true
}

// Solve (re-)optimizes exactly and returns Optimal or Unbounded, warm
// from the previous basis when it is still primal or dual feasible.
// Value, XVal and RowDual read the optimum. A solve canceled through
// SetDone returns ErrCanceled and leaves the tableau down.
func (w *WarmProblem) Solve() (Status, error) {
	st, warm, path, err := w.resolve()
	if err != nil {
		w.dropTableau()
		return st, err
	}
	w.stats.Solves++
	if warm {
		w.stats.WarmSolves++
	}
	*path++
	return st, nil
}

// resolve runs one solve and reports whether it resumed warm and which
// path counter it finished on.
func (w *WarmProblem) resolve() (st Status, warm bool, path *int, err error) {
	t := &w.t
	if w.live {
		negRHS, negCost := false, false
		for i := range t.rows {
			negRHS = negRHS || t.sign(i, t.n) < 0
		}
		for c := 0; c < t.n && !negCost; c++ {
			negCost = t.sign(-1, c) < 0
		}
		switch {
		case negRHS && negCost: // stale: restart cold
		case negRHS:
			// The dual simplex keeps cost ≥ 0, so success is optimal; a
			// tripped cap falls through to a cold start.
			warm = true
			if err = t.dual(&w.stats.DualPivots); err == nil || err == ErrCanceled {
				return Optimal, true, &w.stats.DualSolves, err
			}
		case negCost:
			st, err = t.primal(t.n, &w.stats.PrimalPivots)
			return st, true, &w.stats.PrimalSolves, err
		default:
			return Optimal, true, &w.stats.NoopSolves, nil
		}
	}
	// An unbounded tableau stays live: a later AddRow may bound it.
	w.coldStart()
	st, err = t.primal(t.n, &w.stats.PrimalPivots)
	return st, warm, &w.stats.ColdStarts, err
}

var zeroRat = new(big.Rat)

// Value returns the objective value of the current optimum.
func (w *WarmProblem) Value() *big.Rat {
	if !w.live {
		return new(big.Rat)
	}
	return w.t.rat(-1, w.t.n, nil, w.objScale)
}

// XVal returns the value of variable j at the current optimum. The
// result must not be modified.
func (w *WarmProblem) XVal(j int) *big.Rat {
	if !w.live || w.t.colRow[j] < 0 || w.t.sign(w.t.colRow[j], w.t.n) == 0 {
		return zeroRat
	}
	return w.t.rat(w.t.colRow[j], w.t.n, nil, nil)
}

// RowDual returns the exact dual value of the row with the given id at
// the current optimum (the reduced cost of its slack column): for the
// covering duals, the primal cover weight of the row's edge, as in
// Solution.RowDuals. The result must not be modified.
func (w *WarmProblem) RowDual(id int) *big.Rat {
	if r, ok := w.byID[id]; ok && r.slack >= 0 && w.t.sign(-1, r.slack) != 0 {
		return w.t.rat(-1, r.slack, r.scale, w.objScale)
	}
	return zeroRat
}

// ApproxBytes is a flat estimate of the memory w retains, for cache
// budgeting: 16 bytes per tableau cell, ~48 per rational and 8 per
// integer bookkeeping slot. Eviction only needs the order of magnitude.
func (w *WarmProblem) ApproxBytes() int64 {
	rats := len(w.obj)
	for _, r := range w.rows {
		rats += len(r.coef) + 1
	}
	cells := (len(w.t.rows) + len(w.t.pool) + 2) * (w.t.n + 1)
	slots := len(w.t.basis) + len(w.t.colRow) + len(w.freeCols) + 2*len(w.rows)
	return int64(rats)*48 + int64(cells)*16 + int64(slots)*8
}
