package lp

// tableau.go — the fraction-free simplex kernel. Cell (i, j) stands for
// T[i][j]/d with integer entries and one positive denominator d. A pivot
// on (r, c) with p = T[r][c] rewrites every other row as
//
//	T'[i][j] = (p·T[i][j] − T[i][c]·T[r][j]) / d
//
// and p becomes the denominator (signs flipped when p < 0). The division
// is exact — built from an integer matrix on a unit basis, d is the
// basis determinant and every entry a minor (Edmonds; Bareiss) — and
// ratio tests compare cross-products. While all entries stay below 2^31
// (the tiny flag) a row update is plain int64 arithmetic; beyond that
// products are formed in 128 bits, and an entry that no longer fits an
// int64 becomes a big.Int in place. Pivot selection never depends on
// the representation.

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
)

// ErrCanceled is returned by a solve whose done channel fired.
var ErrCanceled = errors.New("lp: solve canceled")

// tinyLim bounds entries whose products and their sums fit an int64.
const tinyLim = 1<<31 - 1

// num is a tableau entry: b when non-nil, else v. Values that fit an
// int64 other than math.MinInt64 (so negation never overflows) are
// always held in v.
type num struct {
	v int64
	b *big.Int
}

// tableau is a dense tableau with an explicit basis. Row -1 is the
// reduced-cost row; column n is the right-hand side.
type tableau struct {
	n      int
	rows   [][]num
	cost   []num
	d      num
	basis  []int // basis[i] = column basic in row i
	colRow []int // colRow[c] = row where column c is basic, or -1
	tiny   bool  // every entry and d are int64s below tinyLim in magnitude
	wide   bool  // some entry has needed a big.Int since the last reset

	x, y, z    big.Int // wide scratch
	spare      []num
	pool       [][]num // retired row buffers
	done       <-chan struct{}
	promotions int // resets after which an entry outgrew int64
}

// reset empties t to n columns and denominator 1, keeping buffers.
func (t *tableau) reset(n int) {
	t.pool = append(t.pool, t.rows...)
	t.rows = t.rows[:0]
	t.n, t.d, t.tiny, t.wide = n, num{v: 1}, true, false
	t.cost = zeroed(t.cost, n+1)
	t.spare = zeroed(t.spare, n+1)
	t.basis = t.basis[:0]
	t.colRow = t.colRow[:0]
	for len(t.colRow) < n {
		t.colRow = append(t.colRow, -1)
	}
}

func zeroed(r []num, n int) []num {
	if cap(r) < n {
		return make([]num, n)
	}
	r = r[:n]
	clear(r)
	return r
}

// addRow appends a zero row with no basic column and returns its index.
func (t *tableau) addRow() int {
	var r []num
	if k := len(t.pool); k > 0 {
		r, t.pool = t.pool[k-1], t.pool[:k-1]
	}
	t.rows = append(t.rows, zeroed(r, t.n+1))
	t.basis = append(t.basis, -1)
	return len(t.rows) - 1
}

// dropRow deletes row i, moving the last row into its place.
func (t *tableau) dropRow(i int) {
	last := len(t.rows) - 1
	t.colRow[t.basis[i]] = -1
	t.pool = append(t.pool, t.rows[i])
	t.rows[i], t.basis[i] = t.rows[last], t.basis[last]
	t.rows, t.basis = t.rows[:last], t.basis[:last]
	if i != last {
		t.colRow[t.basis[i]] = i
	}
}

// addCol inserts a zero column before the right-hand side.
func (t *tableau) addCol() int {
	c := t.n
	t.n++
	for i := -1; i < len(t.rows); i++ {
		r := append(t.row(i), num{})
		r[c+1], r[c] = r[c], num{}
		t.setRow(i, r)
	}
	t.spare = zeroed(t.spare, t.n+1)
	t.colRow = append(t.colRow, -1)
	return c
}

func (t *tableau) row(i int) []num {
	if i < 0 {
		return t.cost
	}
	return t.rows[i]
}

func (t *tableau) setRow(i int, r []num) {
	if i < 0 {
		t.cost = r
	} else {
		t.rows[i] = r
	}
}

// setBasic makes column c basic in row i.
func (t *tableau) setBasic(i, c int) {
	if b := t.basis[i]; b >= 0 {
		t.colRow[b] = -1
	}
	t.basis[i] = c
	t.colRow[c] = i
}

// mag maps v ≥ 0 to v and v < 0 to |v|−1, so an OR over a row tests
// the row against tinyLim at once; magOf saturates for big entries.
func mag(v int64) int64 { return v ^ v>>63 }

func magOf(x num) int64 {
	if x.b != nil {
		return math.MaxInt64
	}
	return mag(x.v)
}

// big returns x as a big.Int, in z when x is narrow.
func (x num) big(z *big.Int) *big.Int {
	if x.b != nil {
		return x.b
	}
	return z.SetInt64(x.v)
}

func (x num) sign() int {
	if x.b != nil {
		return x.b.Sign()
	}
	return int(x.v>>63) | int(uint64(-x.v)>>63)
}

// mk returns z as an entry, narrow when it fits.
func (t *tableau) mk(z *big.Int) num {
	if z.IsInt64() && z.Int64() != math.MinInt64 {
		return num{v: z.Int64()}
	}
	if !t.wide {
		t.wide = true
		t.promotions++
	}
	return num{b: new(big.Int).Set(z)}
}

// put stores v at (i, j), clearing tiny when v is large.
func (t *tableau) put(i, j int, v num) {
	t.row(i)[j] = v
	if magOf(v) >= tinyLim {
		t.tiny = false
	}
}

// putRat stores the integer s·v at (i, j), negated when neg; s is a
// common denominator of v (nil means 1).
func (t *tableau) putRat(i, j int, v *big.Rat, s *big.Int, neg bool) {
	x := num{v: v.Num().Int64()}
	if s != nil || !v.Num().IsInt64() || x.v == math.MinInt64 {
		x = t.mk(t.x.Mul(v.Num(), t.y.Quo(orOne(s), v.Denom())))
	}
	if neg {
		x = t.neg(x)
	}
	t.put(i, j, x)
}

// putRow stores a constraint row (see putRat).
func (t *tableau) putRow(i int, coef []*big.Rat, rhs *big.Rat, s *big.Int, neg bool) {
	for j, v := range coef {
		if v != nil && v.Sign() != 0 {
			t.putRat(i, j, v, s, neg)
		}
	}
	t.putRat(i, t.n, rhs, s, neg)
}

func (t *tableau) sign(i, j int) int { return t.row(i)[j].sign() }

// minor returns the sign of T[i1][j1]·T[i2][j2] − T[i2][j1]·T[i1][j2].
func (t *tableau) minor(i1, i2, j1, j2 int) int {
	r1, r2 := t.row(i1), t.row(i2)
	return t.lin(r1[j1], r2[j2], t.neg(r2[j1]), r1[j2], num{v: 1}).sign()
}

// mul128 returns the two's-complement 128-bit product a·b.
func mul128(a, b int64) (hi, lo uint64) {
	hi, lo = bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi, lo
}

// lin returns (a·x + b·y)/e for e > 0, known to be an integer: in int64
// with 128-bit intermediates when possible, else in big.Int.
func (t *tableau) lin(a, x, b, y, e num) num {
	if a.b == nil && x.b == nil && b.b == nil && y.b == nil && e.b == nil {
		h1, l1 := mul128(a.v, x.v)
		h2, l2 := mul128(b.v, y.v)
		lo, carry := bits.Add64(l1, l2, 0)
		hi, _ := bits.Add64(h1, h2, carry)
		neg := int64(hi) < 0
		if neg {
			var borrow uint64
			lo, borrow = bits.Sub64(0, lo, 0)
			hi, _ = bits.Sub64(0, hi, borrow)
		}
		if hi < uint64(e.v) {
			if q, _ := bits.Div64(hi, lo, uint64(e.v)); q <= math.MaxInt64 {
				if neg {
					return num{v: -int64(q)}
				}
				return num{v: int64(q)}
			}
		}
	}
	t.x.Mul(a.big(&t.x), x.big(&t.z))
	t.y.Mul(b.big(&t.y), y.big(&t.z))
	t.x.Add(&t.x, &t.y)
	return t.mk(t.x.Quo(&t.x, e.big(&t.z)))
}

// neg returns −x.
func (t *tableau) neg(x num) num { return t.lin(x, num{v: -1}, num{}, num{}, num{v: 1}) }

// update sets row_s ← ±(p·row_s − f·row_r)/d with p = T[r][c] and
// f = T[s][c], negated when p < 0 so |p| can become the denominator. It
// returns the OR of mag over the new row (0 if a tiny row is unchanged)
// and clears tiny when the row outgrew it.
func (t *tableau) update(s, r, c int) int64 {
	rs, pr := t.row(s), t.rows[r]
	a, b := pr[c], rs[c]
	if t.tiny && b.v == 0 && a.v == t.d.v {
		return 0
	}
	if a.sign() < 0 {
		a = t.neg(a)
	} else {
		b = t.neg(b)
	}
	out, acc := t.spare[:len(rs)], int64(0)
	if t.tiny {
		d := t.d.v
		for j := range rs {
			v := a.v*rs[j].v + b.v*pr[j].v
			if v != 0 && d != 1 {
				v /= d
			}
			out[j] = num{v: v}
			acc |= mag(v)
		}
	} else {
		for j := range rs {
			out[j] = t.lin(a, rs[j], b, pr[j], t.d)
			acc |= magOf(out[j])
		}
	}
	t.setRow(s, out)
	t.spare = rs
	if acc >= tinyLim {
		t.tiny = false
	}
	return acc
}

// addCell adds x·d to T[s][j].
func (t *tableau) addCell(s, j int, x num) {
	t.put(s, j, t.lin(num{v: 1}, t.row(s)[j], x, t.d, num{v: 1}))
}

// express rewrites row s, holding raw integers, in the current basis:
// row_s ← d·row_s − Σ row_s[basis[r]]·row_r over the rows r ≠ s.
func (t *tableau) express(s int) {
	if t.d.b != nil || t.d.v != 1 {
		for j, x := range t.row(s) {
			t.put(s, j, t.lin(t.d, x, num{}, num{}, num{v: 1}))
		}
	}
	for r, b := range t.basis {
		if r != s && b >= 0 && t.sign(s, b) != 0 {
			t.update(s, r, b)
		}
	}
}

// price rebuilds the cost row from obj (negated when neg) for the
// current basis, scaled by obj's common denominator, which it returns.
func (t *tableau) price(obj []*big.Rat, neg bool) *big.Int {
	s := denomLCM(obj, nil)
	clear(t.cost)
	t.putRow(-1, obj, zeroRat, s, neg)
	t.express(-1)
	return s
}

// pivot pivots on (r, c), making column c basic in row r.
func (t *tableau) pivot(r, c int) {
	var acc int64
	for s := -1; s < len(t.rows); s++ {
		if s != r {
			acc |= t.update(s, r, c)
		}
	}
	pr := t.rows[r]
	flip := pr[c].sign() < 0
	for j := range pr {
		if flip {
			pr[j] = t.neg(pr[j])
		}
		acc |= magOf(pr[j])
	}
	t.d = pr[c]
	t.tiny = acc < tinyLim
	t.setBasic(r, c)
}

// primal runs Bland's rule on a primal-feasible tableau: the entering
// column is the first below allowed with negative reduced cost, the
// leaving row the minimum ratio, ties to the smallest basic column.
func (t *tableau) primal(allowed int, pivots *int) (Status, error) {
	for {
		col := -1
		for j := 0; j < allowed && col < 0; j++ {
			if t.sign(-1, j) < 0 {
				col = j
			}
		}
		if col < 0 {
			return Optimal, nil
		}
		row := -1
		for i := range t.rows {
			if t.sign(i, col) <= 0 {
				continue
			}
			// rhs_i/a_i < rhs_row/a_row, cross-multiplied (a > 0).
			if row < 0 {
				row = i
			} else if m := t.minor(i, row, t.n, col); m < 0 || m == 0 && t.basis[i] < t.basis[row] {
				row = i
			}
		}
		if row < 0 {
			return Unbounded, nil
		}
		select {
		case <-t.done: // a nil channel never fires
			return 0, ErrCanceled
		default:
		}
		*pivots++
		t.pivot(row, col)
	}
}

// dualSimplexCap bounds one dual re-solve: a defensive backstop (Bland's
// rule terminates) trading a pathological warm path for a cold start.
const dualSimplexCap = 10_000

var errDualStale = errors.New("lp: dual simplex gave up")

// dual drives a dual-feasible tableau to primal feasibility: the leaving
// row is the negative-RHS row with the smallest basic column, the
// entering column the first minimizing cost_c/(−a_c) over a_c < 0.
func (t *tableau) dual(pivots *int) error {
	for k := 0; k < dualSimplexCap; k++ {
		row := -1
		for i := range t.rows {
			if t.sign(i, t.n) < 0 && (row < 0 || t.basis[i] < t.basis[row]) {
				row = i
			}
		}
		if row < 0 {
			return nil
		}
		col := -1
		for c := 0; c < t.n; c++ {
			// cost_c/(−a_c) < cost_col/(−a_col) ⇔ cost_c·a_col > cost_col·a_c.
			if t.sign(row, c) < 0 && (col < 0 || t.minor(-1, row, c, col) > 0) {
				col = c
			}
		}
		if col < 0 {
			return errDualStale
		}
		select {
		case <-t.done:
			return ErrCanceled
		default:
		}
		*pivots++
		t.pivot(row, col)
	}
	return errDualStale
}

// rat returns T[i][j]·mul/(d·div), nil meaning 1.
func (t *tableau) rat(i, j int, mul, div *big.Int) *big.Rat {
	x := t.row(i)[j]
	if x.b == nil && t.d.b == nil && mul == nil && div == nil {
		return new(big.Rat).SetFrac64(x.v, t.d.v)
	}
	num := new(big.Int).Mul(x.big(&t.x), orOne(mul))
	return new(big.Rat).SetFrac(num, new(big.Int).Mul(t.d.big(&t.y), orOne(div)))
}

// denomLCM returns the least common denominator of vs and v, nil when
// all are integers (nil entries are zero).
func denomLCM(vs []*big.Rat, v *big.Rat) *big.Int {
	var s *big.Int
	for k := -1; k < len(vs); k++ {
		if k >= 0 {
			v = vs[k]
		}
		if v != nil && !v.IsInt() {
			s = lcm(s, v.Denom())
		}
	}
	return s
}

// lcm returns lcm(a, b) with nil standing for 1.
func lcm(a, b *big.Int) *big.Int {
	switch {
	case b == nil:
		return a
	case a == nil:
		return new(big.Int).Set(b)
	}
	g := new(big.Int).GCD(nil, nil, a, b)
	return g.Mul(g.Quo(a, g), b)
}
