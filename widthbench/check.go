package main

import (
	"fmt"
	"math/big"

	"hypertree/internal/decomp"
	"hypertree/internal/solve"
)

// answer is one solve outcome in checkable form.
type answer struct {
	m            solve.Measure
	lower, upper *big.Rat
	exact        bool
	// witness is the returned decomposition, nil when the response
	// carried none (/width).
	witness *decomp.Decomp
}

// reference is what is known about an instance independently of the
// program under test.
type reference struct {
	// golden is the ghw recorded in GOLDEN.tsv, or nil.
	golden *big.Rat
	// satReduction marks a Theorem 3.2 reduction of a satisfiable
	// formula: then ghw ≤ 2 and fhw ≤ 2.
	satReduction bool
}

var two = big.NewRat(2, 1)

// checkAnswer returns every violation of one answer against its
// reference; none means the answer passed.
func checkAnswer(a answer, ref reference) []string {
	var bad []string
	if a.lower == nil || a.upper == nil {
		return []string{fmt.Sprintf("%s: missing bound (lower %v, upper %v)", a.m, a.lower, a.upper)}
	}
	lo, up := a.lower, a.upper
	if lo.Cmp(up) > 0 {
		bad = append(bad, fmt.Sprintf("%s: lower %s > upper %s", a.m, lo.RatString(), up.RatString()))
	}
	if a.exact && lo.Cmp(up) != 0 {
		bad = append(bad, fmt.Sprintf("%s: exact but [%s, %s]", a.m, lo.RatString(), up.RatString()))
	}
	if g := ref.golden; g != nil {
		switch a.m {
		case solve.GHW:
			if lo.Cmp(g) > 0 || up.Cmp(g) < 0 {
				bad = append(bad, fmt.Sprintf("ghw: [%s, %s] misses golden %s", lo.RatString(), up.RatString(), g.RatString()))
			}
		case solve.HW:
			if up.Cmp(g) < 0 {
				bad = append(bad, fmt.Sprintf("hw: upper %s below golden ghw %s", up.RatString(), g.RatString()))
			}
		case solve.FHW:
			if lo.Cmp(g) > 0 {
				bad = append(bad, fmt.Sprintf("fhw: lower %s above golden ghw %s", lo.RatString(), g.RatString()))
			}
		}
	}
	if ref.satReduction && a.m != solve.HW && lo.Cmp(two) > 0 {
		bad = append(bad, fmt.Sprintf("%s: lower %s > 2 on a satisfiable reduction", a.m, lo.RatString()))
	}
	if a.witness != nil {
		if err := a.witness.Validate(a.m.Kind()); err != nil {
			bad = append(bad, fmt.Sprintf("%s: witness invalid: %v", a.m, err))
		} else if w := a.witness.Width(); w.Cmp(up) != 0 {
			bad = append(bad, fmt.Sprintf("%s: witness width %s != upper %s", a.m, w.RatString(), up.RatString()))
		}
	}
	return bad
}

// crossCheck collects the bounds reported for each instance and checks
// them against each other: two answers cannot both be right if one's
// lower bound exceeds the other's upper bound, and fhw ≤ ghw ≤ hw, so
// fhw.lower ≤ ghw.upper and ghw.lower ≤ hw.upper.
type crossCheck struct {
	seen map[string]*[3]bounds
}

type bounds struct{ maxLower, minUpper *big.Rat }

func newCrossCheck() *crossCheck { return &crossCheck{seen: map[string]*[3]bounds{}} }

// add records an answer for instance key. Answers without both bounds
// are left to checkAnswer.
func (c *crossCheck) add(key string, a answer) {
	if a.lower == nil || a.upper == nil {
		return
	}
	b := c.seen[key]
	if b == nil {
		b = &[3]bounds{}
		c.seen[key] = b
	}
	x := &b[a.m]
	if x.maxLower == nil || a.lower.Cmp(x.maxLower) > 0 {
		x.maxLower = a.lower
	}
	if x.minUpper == nil || a.upper.Cmp(x.minUpper) < 0 {
		x.minUpper = a.upper
	}
}

// violations returns one line per contradicted relation.
func (c *crossCheck) violations() []string {
	var bad []string
	for key, b := range c.seen {
		for m := range b {
			if lo, up := b[m].maxLower, b[m].minUpper; lo != nil && lo.Cmp(up) > 0 {
				bad = append(bad, fmt.Sprintf("%s %s: answers disagree, lower %s > upper %s",
					key, solve.Measure(m), lo.RatString(), up.RatString()))
			}
		}
		for _, pr := range [][2]solve.Measure{{solve.FHW, solve.GHW}, {solve.GHW, solve.HW}} {
			lo, up := b[pr[0]].maxLower, b[pr[1]].minUpper
			if lo != nil && up != nil && lo.Cmp(up) > 0 {
				bad = append(bad, fmt.Sprintf("%s: %s.lower %s > %s.upper %s",
					key, pr[0], lo.RatString(), pr[1], up.RatString()))
			}
		}
	}
	return bad
}

// crossFailures counts every contradicted relation as a failure.
func crossFailures(rep *report, c *crossCheck) {
	for _, v := range c.violations() {
		rep.fail(true, "cross-check", v)
	}
}
