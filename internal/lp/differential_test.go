package lp

import (
	"math/big"
	"math/rand"
	"testing"
)

// script decodes a fuzz byte string into coefficients and edit choices;
// it reads zeros once the data runs out.
type script []byte

func (s *script) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// rat draws a coefficient: mostly 0..3, sometimes multi-digit integers
// or fractions, and negative values when neg allows.
func (s *script) rat(neg bool) *big.Rat {
	b := s.next()
	switch b % 8 {
	case 4:
		return RI(int64(s.next()) * int64(1+s.next()))
	case 5:
		return R(int64(s.next()%32), int64(1+s.next()%12))
	case 6:
		if neg {
			return RI(-int64(1 + s.next()%7))
		}
		return RI(1)
	case 7:
		return RI(int64(10 + s.next()%90))
	}
	return RI(int64(b >> 3 % 4))
}

// diffWarm replays an edit script on a WarmProblem and on the rational
// reference engine side by side, comparing every solve.
func diffWarm(t *testing.T, data []byte) {
	s := script(data)
	n := 1 + int(s.next())%4
	w, ref := NewWarm(n), newRefWarm(n)
	setObj := func(j int, c *big.Rat) {
		w.SetObjective(j, c)
		ref.SetObjective(j, c)
	}
	for j := 0; j < n; j++ {
		setObj(j, s.rat(false))
	}
	var live []int
	addRow := func() {
		coef := make([]*big.Rat, n)
		nz := false
		for j := range coef {
			if c := s.rat(true); c.Sign() != 0 {
				coef[j], nz = c, true
			}
		}
		if !nz {
			coef[int(s.next())%n] = RI(1)
		}
		rhs := s.rat(false)
		id := w.AddRow(coef, rhs)
		if rid := ref.AddRow(coef, rhs); rid != id {
			t.Fatalf("row ids diverged: %d vs %d", id, rid)
		}
		live = append(live, id)
	}
	addRow()
	compareWarm(t, w, ref)
	for steps := 0; steps < 10 && len(s) > 0; steps++ {
		switch op := s.next() % 8; {
		case op <= 1:
			addRow()
		case op == 2 && len(live) > 1:
			i := int(s.next()) % len(live)
			w.RetireRow(live[i])
			ref.RetireRow(live[i])
			live = append(live[:i], live[i+1:]...)
		case op == 3:
			n = 1 + int(s.next())%4
			w.Reset(n)
			ref.Reset(n)
			live = live[:0]
			for j := 0; j < n; j++ {
				setObj(j, s.rat(false))
			}
			addRow()
		default:
			setObj(int(s.next())%n, s.rat(false))
		}
		compareWarm(t, w, ref)
	}
}

// compareWarm solves both engines and requires identical outcomes:
// status, value, every variable, every row dual and every counter.
func compareWarm(t *testing.T, w *WarmProblem, ref *refWarm) {
	t.Helper()
	st, err := w.Solve()
	rst, rerr := ref.Solve()
	if err != nil || rerr != nil {
		t.Fatalf("solve errors: %v / %v", err, rerr)
	}
	ws := w.Stats()
	ws.Promotions = 0 // the reference never promotes
	if st != rst || ws != ref.Stats() {
		t.Fatalf("status %v stats %+v, reference %v %+v", st, ws, rst, ref.Stats())
	}
	if st != Optimal {
		return
	}
	if w.Value().Cmp(ref.Value()) != 0 {
		t.Fatalf("value %v, reference %v", w.Value(), ref.Value())
	}
	for j := 0; j < w.nVars; j++ {
		if w.XVal(j).Cmp(ref.XVal(j)) != 0 {
			t.Fatalf("x[%d] = %v, reference %v", j, w.XVal(j), ref.XVal(j))
		}
	}
	for _, r := range w.rows {
		if w.RowDual(r.id).Cmp(ref.RowDual(r.id)) != 0 {
			t.Fatalf("dual of row %d = %v, reference %v", r.id, w.RowDual(r.id), ref.RowDual(r.id))
		}
	}
}

// diffCold builds a general LP (any relation, signed RHS, fractional and
// multi-digit coefficients) from a script and compares Problem.Solve
// with the rational reference.
func diffCold(t *testing.T, data []byte) {
	s := script(data)
	n := 1 + int(s.next())%5
	p := NewProblem(n)
	p.Minimize = s.next()%2 == 0
	for j := 0; j < n; j++ {
		p.SetObjective(j, s.rat(true))
	}
	for m := 1 + int(s.next())%5; m > 0; m-- {
		coef := make([]*big.Rat, n)
		for j := range coef {
			if c := s.rat(true); c.Sign() != 0 {
				coef[j] = c
			}
		}
		rhs := s.rat(true)
		if s.next()%3 == 0 {
			rhs.Neg(rhs)
		}
		p.AddConstraint(coef, Rel(s.next()%3), rhs)
	}
	compareCold(t, p)
}

func compareCold(t *testing.T, p *Problem) *Solution {
	t.Helper()
	got, err := p.Solve()
	want, rerr := refSolve(p)
	if err != nil || rerr != nil {
		t.Fatalf("solve errors: %v / %v", err, rerr)
	}
	if got.Status != want.Status || got.pivots != want.pivots {
		t.Fatalf("status %v after %d pivots, reference %v after %d", got.Status, got.pivots, want.Status, want.pivots)
	}
	if got.Status != Optimal {
		return got
	}
	if got.Value.Cmp(want.Value) != 0 {
		t.Fatalf("value %v, reference %v", got.Value, want.Value)
	}
	for j := range want.X {
		if got.X[j].Cmp(want.X[j]) != 0 {
			t.Fatalf("x[%d] = %v, reference %v", j, got.X[j], want.X[j])
		}
	}
	for i := range want.RowDuals {
		g, w := got.RowDuals[i], want.RowDuals[i]
		if (g == nil) != (w == nil) || g != nil && g.Cmp(w) != 0 {
			t.Fatalf("dual of row %d = %v, reference %v", i, g, w)
		}
	}
	return got
}

var diffSeeds = [][]byte{
	{3, 3, 1, 1, 1, 0, 1, 2, 3},
	{2, 1, 7, 0, 200, 1, 9},
	{4, 2, 0, 0, 0, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1},
	{1, 1, 1, 1, 201, 202, 100},
	{3, 4, 250, 97, 4, 99, 12, 5, 31, 11, 7, 77, 0, 4, 123, 45, 1, 6, 6, 2, 5, 17, 3},
	{4, 7, 13, 4, 250, 250, 5, 29, 11, 12, 4, 199, 87, 7, 42, 0, 3, 2, 5, 9, 5, 4, 88, 99, 1},
}

// FuzzDifferential checks the fraction-free kernel against the rational
// reference on edit scripts: WarmProblem against the old warm engine
// (status, value, X, row duals and every WarmStats counter) and
// Problem.Solve against the old two-phase simplex (status, value, X,
// row duals and the pivot count). Seeds include multi-digit and
// fractional coefficients. The CI parser-fuzz job runs a short pass.
func FuzzDifferential(f *testing.F) {
	for _, s := range diffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffWarm(t, data)
		diffCold(t, data)
	})
}

// TestKernelMatchesReference runs the differential over seeded random
// scripts, so the plain test run covers it too.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		diffWarm(t, data)
		diffCold(t, data)
	}
}

// TestPromotion forces the int64 → big.Int promotion: coefficients near
// 10^12 overflow the products of the first pivots, and 2^70 does not
// fit an int64 at all. The answers must still match the reference.
func TestPromotion(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
	for _, big1 := range []*big.Rat{RI(999_999_999_989), huge} {
		p := NewProblem(3)
		p.Minimize = false
		for j := 0; j < 3; j++ {
			p.SetObjective(j, RI(int64(j+1)))
		}
		p.AddConstraint([]*big.Rat{big1, RI(999_999_937), RI(3)}, LE, RI(1_000_000_007))
		p.AddConstraint([]*big.Rat{RI(7), big1, RI(999_999_929)}, LE, RI(999_983))
		p.AddConstraint([]*big.Rat{RI(999_999_893), RI(11), big1}, LE, R(1_000_003, 7))
		p.AddConstraint([]*big.Rat{RI(1), RI(1), RI(1)}, GE, R(1, 999_999_999_999))
		if s := compareCold(t, p); s.promotions == 0 {
			t.Fatalf("coefficient %v solved without promotion", big1)
		}

		w, ref := NewWarm(3), newRefWarm(3)
		for j := 0; j < 3; j++ {
			w.SetObjective(j, RI(1))
			ref.SetObjective(j, RI(1))
		}
		for _, c := range p.Constraints[:3] {
			w.AddRow(c.Coef, c.RHS)
			ref.AddRow(c.Coef, c.RHS)
		}
		compareWarm(t, w, ref)
		w.SetObjective(1, R(5, 3))
		ref.SetObjective(1, R(5, 3))
		compareWarm(t, w, ref)
		if w.Stats().Promotions == 0 {
			t.Fatalf("coefficient %v: warm solves without promotion", big1)
		}
	}
}

// TestWarmResolveAllocs pins the allocation-free warm path: an
// objective toggle plus a warm re-solve on an int64 tableau allocates
// nothing per run (reading results builds rationals; solving does not).
func TestWarmResolveAllocs(t *testing.T) {
	w := NewWarm(6)
	for i := 0; i < 6; i++ {
		coef := make([]*big.Rat, 6)
		coef[i], coef[(i+1)%6], coef[(i+3)%6] = RI(1), RI(2), RI(1)
		w.AddRow(coef, RI(3))
	}
	for j := 0; j < 6; j++ {
		w.SetObjective(j, RI(1))
	}
	if _, err := w.Solve(); err != nil {
		t.Fatal(err)
	}
	vals := []*big.Rat{RI(0), RI(1)}
	flip := 0
	allocs := testing.AllocsPerRun(50, func() {
		flip ^= 1
		w.SetObjective(2, vals[flip])
		if st, err := w.Solve(); err != nil || st != Optimal {
			t.Fatal("warm solve failed")
		}
	})
	if st := w.Stats(); st.ColdStarts != 1 || st.Promotions != 0 {
		t.Fatalf("stats %+v, want one cold start and no promotion", st)
	}
	if allocs > 0 {
		t.Fatalf("warm re-solve allocates %.1f/run, want 0", allocs)
	}
}

// TestSolveCanceled: a closed done channel stops both engines at the
// first pivot with ErrCanceled, and a canceled warm solve is counted on
// no path and cold-starts next time.
func TestSolveCanceled(t *testing.T) {
	done := make(chan struct{})
	close(done)
	p := NewProblem(2)
	p.Minimize = false
	p.SetObjective(0, RI(1))
	p.AddConstraint([]*big.Rat{RI(1), RI(1)}, LE, RI(4))
	p.Done = done
	if _, err := p.Solve(); err != ErrCanceled {
		t.Fatalf("Problem.Solve: err %v, want ErrCanceled", err)
	}
	w := NewWarm(2)
	w.SetObjective(0, RI(1))
	w.AddRow([]*big.Rat{RI(1), RI(1)}, RI(4))
	w.SetDone(done)
	if _, err := w.Solve(); err != ErrCanceled {
		t.Fatalf("WarmProblem.Solve: err %v, want ErrCanceled", err)
	}
	if st := w.Stats(); st.Solves != 0 || st.ColdStarts != 0 {
		t.Fatalf("canceled solve counted: %+v", st)
	}
	w.SetDone(nil)
	if st, err := w.Solve(); err != nil || st != Optimal || w.Value().Cmp(RI(4)) != 0 {
		t.Fatalf("after cancel: %v %v value %v", st, err, w.Value())
	}
}
