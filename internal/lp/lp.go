// Package lp is an exact linear-program solver: the two-phase simplex
// method with Bland's anti-cycling rule. The paper's algorithms decide
// questions like "does this vertex set have a fractional edge cover of
// weight ≤ k?" (Section 2.2), and fhw(H) ≤ 2 versus > 2 is already the
// NP-hard boundary of Theorem 3.2, so floating point will not do.
// Coefficients come in as big.Rat and are scaled to integers; the
// tableau (tableau.go) keeps int64 entries over one common denominator,
// pivots fraction-free, and widens an entry to big.Int only when it
// would overflow. Rationals are built only when a result is read.
// Problem.Solve and the incremental WarmProblem share that kernel.
package lp

import (
	"errors"
	"fmt"
	"math/big"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

// Status reports the outcome of solving a problem.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Constraint is a linear constraint Σ Coef[j]·x_j (Rel) RHS over the
// problem's variables. Coef may be shorter than the number of variables;
// missing coefficients are zero.
type Constraint struct {
	Coef []*big.Rat
	Rel  Rel
	RHS  *big.Rat
}

// Problem is a linear program over n non-negative variables:
// optimize Objective·x subject to the constraints and x ≥ 0.
type Problem struct {
	NumVars     int
	Objective   []*big.Rat
	Minimize    bool
	Constraints []Constraint
	// Done, when non-nil, is polled before every pivot; once it is
	// closed Solve returns ErrCanceled.
	Done <-chan struct{}
}

// Solution is the result of solving a problem.
type Solution struct {
	Status Status
	Value  *big.Rat   // objective value; nil unless Optimal
	X      []*big.Rat // variable assignment; nil unless Optimal
	// RowDuals[i] is the reduced cost of row i's slack/surplus column at
	// the optimum, or nil for EQ rows and rows whose RHS was negated. For
	// a ≤-form maximization these are exact optimal duals: the covering
	// LPs read their primal covers off them.
	RowDuals []*big.Rat

	pivots, promotions int // kernel counters, for the differential tests
}

// NewProblem returns a minimization problem with n variables and zero
// objective.
func NewProblem(n int) *Problem {
	obj := make([]*big.Rat, n)
	for i := range obj {
		obj[i] = new(big.Rat)
	}
	return &Problem{NumVars: n, Objective: obj, Minimize: true}
}

// SetObjective sets the coefficient of variable j.
func (p *Problem) SetObjective(j int, c *big.Rat) {
	p.Objective[j] = new(big.Rat).Set(c)
}

// AddConstraint appends a constraint. The coefficient slice is copied;
// nil coefficients stay nil (zero).
func (p *Problem) AddConstraint(coef []*big.Rat, rel Rel, rhs *big.Rat) {
	cc := make([]*big.Rat, len(coef))
	for i, c := range coef {
		if c != nil {
			cc[i] = new(big.Rat).Set(c)
		}
	}
	p.Constraints = append(p.Constraints, Constraint{Coef: cc, Rel: rel, RHS: new(big.Rat).Set(rhs)})
}

// Solve solves the problem exactly. It never mutates p.
//
// Each row is scaled by the least common denominator of its entries;
// its slack and artificial keep coefficient ±1, which rescales those
// variables by the row factor. Bland's rule is invariant under positive
// rescaling, so the pivots, X and Value are those of the unscaled
// problem, a row dual is read back times its factor, and phase 1 weighs
// each artificial by 1/factor. Only ≥/= rows (after sign normalization)
// get artificials, so a pure ≤-form problem skips phase 1.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.Constraints)
	// Column layout: structural vars | slack/surplus | artificial.
	nStruct := p.NumVars
	nSlack, nArt := 0, 0
	rels := make([]Rel, m)
	for i, c := range p.Constraints {
		rel := c.Rel
		if c.RHS.Sign() < 0 && rel != EQ {
			rel = GE - rel // a negated RHS swaps ≤ and ≥
		}
		rels[i] = rel
		if rel != EQ {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	t := &tableau{done: p.Done}
	t.reset(n)
	slack, art := nStruct, nStruct+nSlack
	slackCol := make([]int, m)
	scales := make([]*big.Int, m)
	var artScale *big.Int
	for i, c := range p.Constraints {
		t.addRow()
		neg := c.RHS.Sign() < 0
		coef := c.Coef[:min(len(c.Coef), nStruct)]
		scales[i] = denomLCM(coef, c.RHS)
		t.putRow(i, coef, c.RHS, scales[i], neg)
		slackCol[i] = -1
		if rels[i] != EQ {
			t.put(i, slack, num{v: 1 - 2*int64(rels[i])}) // +1 slack for LE, −1 surplus for GE
			if !neg {
				slackCol[i] = slack
			}
			t.setBasic(i, slack)
			slack++
		}
		if rels[i] != LE {
			t.put(i, art, num{v: 1})
			t.setBasic(i, art)
			art++
			artScale = lcm(artScale, scales[i])
		}
	}
	sol := &Solution{}
	if nArt > 0 {
		// Phase 1: minimize the sum of the (unscaled) artificials, each
		// priced out of the cost row as it is set.
		for i, b := range t.basis {
			if b >= nStruct+nSlack {
				t.put(-1, b, t.mk(new(big.Int).Quo(orOne(artScale), orOne(scales[i]))))
				t.update(-1, i, b)
			}
		}
		st, err := t.primal(n, &sol.pivots)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			return nil, errors.New("lp: phase 1 unbounded (internal error)")
		}
		if t.sign(-1, n) != 0 { // phase-1 optimum = Σ artificials ≠ 0
			sol.Status, sol.promotions = Infeasible, t.promotions
			return sol, nil
		}
		// Drive basic artificials out; one left in a redundant row stays
		// basic at 0, which is harmless.
		for i, b := range t.basis {
			for j := 0; j < nStruct+nSlack && b >= nStruct+nSlack; j++ {
				if t.sign(i, j) != 0 {
					t.pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: original objective over structural + slack columns only.
	objScale := t.price(p.Objective[:min(len(p.Objective), nStruct)], !p.Minimize)
	st, err := t.primal(nStruct+nSlack, &sol.pivots)
	if err != nil {
		return nil, err
	}
	if sol.promotions = t.promotions; st == Unbounded {
		sol.Status = Unbounded
		return sol, nil
	}
	zeros := make([]big.Rat, p.NumVars) // one slab for the X values
	sol.X = make([]*big.Rat, p.NumVars)
	for j := range sol.X {
		sol.X[j] = &zeros[j]
	}
	for i, b := range t.basis {
		if b < p.NumVars {
			sol.X[b] = t.rat(i, n, nil, nil)
		}
	}
	sol.Value = t.rat(-1, n, nil, objScale)
	if p.Minimize {
		sol.Value.Neg(sol.Value)
	}
	sol.RowDuals = make([]*big.Rat, m)
	for i, sc := range slackCol {
		if sc >= 0 {
			sol.RowDuals[i] = t.rat(-1, sc, scales[i], objScale)
		}
	}
	return sol, nil
}

// orOne returns s, with nil standing for 1.
func orOne(s *big.Int) *big.Int {
	if s == nil {
		return big.NewInt(1)
	}
	return s
}

// R returns the rational a/b.
func R(a, b int64) *big.Rat { return big.NewRat(a, b) }

// RI returns the rational for the integer a.
func RI(a int64) *big.Rat { return new(big.Rat).SetInt64(a) }
