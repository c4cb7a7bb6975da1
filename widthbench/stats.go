package main

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minTail = 10

var errFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank. It refuses, with errFewSamples, when fewer than minTail samples
// lie above the returned rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: %w", p, n, errFewSamples)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples: %w", p, n, errFewSamples)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// tailPercentile returns the highest whole percentile not above want that
// has at least minTail samples beyond it, with its value. With 1000 or
// more samples that is want itself (for want = 99).
func tailPercentile(xs []float64, want float64) (p, v float64, err error) {
	n := len(xs)
	if n <= minTail {
		return 0, 0, fmt.Errorf("tail percentile of %d samples: %w", n, errFewSamples)
	}
	p = math.Min(want, math.Floor(100*float64(n-minTail)/float64(n)))
	for ; p > 0; p-- {
		if v, err = percentile(xs, p); err == nil {
			return p, v, nil
		}
	}
	return 0, 0, fmt.Errorf("tail percentile of %d samples: %w", n, errFewSamples)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values, or 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gapBook collects the interval ratio upper/lower of every answer per
// (instance, measure) pair.
type gapBook map[string][]float64

func (g gapBook) add(pair string, a answer) {
	if a.lower == nil || a.upper == nil || a.lower.Sign() <= 0 {
		return
	}
	r, _ := new(big.Rat).Quo(a.upper, a.lower).Float64()
	g[pair] = append(g[pair], r)
}

// geomean returns the geometric mean over pairs of each pair's median
// ratio: 1.0 means every pair was answered exactly.
func (g gapBook) geomean() float64 {
	var meds []float64
	for _, rs := range g {
		meds = append(meds, median(rs))
	}
	return geomean(meds)
}

// timed is one completed request: when it finished, in seconds since its
// phase started, and its latency in ms.
type timed struct{ at, ms float64 }

// statWindow is the length in seconds of the windows a closed loop's
// rates are taken over; latWindow is the number of consecutive
// completions its latency figures are taken over (enough for a p99 with
// more than minTail samples beyond it).
const (
	statWindow = 2.0
	latWindow  = 2000
)

// windowFigures are a closed loop's figures, each the median over its
// windows, so a stall of the shared host that spans a few windows moves
// only those.
type windowFigures struct {
	rate, goodRate, p50, p99 float64
	windows                  int
}

// byWindow returns the medians, over every phase's windows, of the
// completion rate and the rate of completions within slo ms (windows of
// statWindow seconds; each phase's trailing part-window is dropped) and of
// the p50 and p99 latency (windows of latWindow consecutive samples; a
// phase's remainder joins its last window).
func byWindow(slo float64, phases ...[]timed) (windowFigures, error) {
	var rates, goods, p50s, p99s []float64
	for _, samples := range phases {
		if len(samples) == 0 {
			continue
		}
		var end float64
		for _, s := range samples {
			end = math.Max(end, s.at)
		}
		n := int(end / statWindow)
		count := make([]float64, n)
		good := make([]float64, n)
		for _, s := range samples {
			if w := int(s.at / statWindow); w < n {
				count[w]++
				if s.ms <= slo {
					good[w]++
				}
			}
		}
		for w := range count {
			rates = append(rates, count[w]/statWindow)
			goods = append(goods, good[w]/statWindow)
		}
		k := max(1, len(samples)/latWindow)
		for w := 0; w < k; w++ {
			var lat []float64
			for _, s := range samples[w*len(samples)/k : (w+1)*len(samples)/k] {
				lat = append(lat, s.ms)
			}
			p99, err := percentile(lat, 99)
			if err != nil {
				return windowFigures{}, err
			}
			p50s, p99s = append(p50s, median(lat)), append(p99s, p99)
		}
	}
	if len(rates) == 0 {
		return windowFigures{}, fmt.Errorf("no phase spans a %gs window", statWindow)
	}
	return windowFigures{median(rates), median(goods), median(p50s), median(p99s), len(p99s)}, nil
}
