package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"time"
)

// budget-hard: one client solving, one after another and without a
// cache, every (instance, measure) pair of hardInstances under a fixed 1s
// budget, pass after pass. Each solve runs in a child process of its own
// (see child.go).

// hardSLO is the latency limit of a budget-hard solve: the budget plus
// 10% for returning the incumbent.
const hardSLO = 1100.0

// hardClosingReps is how many more times each pass re-solves the closing
// set, for exact_p50_ms and exact_share: with one sample per pair and
// pass, a single solve slowed by the shared host moved the first.
const hardClosingReps = 2

// hardSolve is one budget-hard solve as the parent saw it.
type hardSolve struct {
	pair   hardPair
	out    *hardOut
	rss    float64
	end    time.Time
	traced bool
	extra  bool // a closing-set repetition, counted for exact_p50_ms and exact_share only
}

// hardPasses runs whole passes until dur has elapsed (at least one): every
// pair once, then the closing set hardClosingReps more times. It returns
// the solves and the seconds spent on the pairs' first solves. With
// traced set, every other solve is traced, alternating between passes so
// each pair is seen both ways.
func hardPasses(cfg *config, rep *report, insts []hardInst, dur time.Duration, traced bool, cross *crossCheck, gaps gapBook) ([]hardSolve, float64) {
	pairs := hardPairs(insts)
	jobs := make([]int, 0, len(pairs))
	for i := range pairs {
		jobs = append(jobs, i)
	}
	for r := 0; r < hardClosingReps; r++ {
		for i, p := range pairs {
			if closingSet(insts[p.inst].name, p.m) {
				jobs = append(jobs, i)
			}
		}
	}
	var solves []hardSolve
	var mainS float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < dur; pass++ {
		for j, i := range jobs {
			p := pairs[i]
			extra := j >= len(pairs)
			in := insts[p.inst]
			what := fmt.Sprintf("%s %s", in.name, p.m)
			rep.attempted++
			tr := traced && (j+pass)%2 == 0
			t0 := time.Now()
			raw, rss, killed, err := runIsolated(cfg, "hard-solve", strconv.Itoa(i), tr, hardBudget+childGrace+2*time.Second)
			if !extra {
				mainS += time.Since(t0).Seconds()
			}
			if killed || err != nil {
				rep.fail(false, what, fmt.Sprintf("child: killed=%v err=%v", killed, err))
				continue
			}
			var out hardOut
			if err := json.Unmarshal(raw, &out); err != nil {
				rep.fail(false, what, "child output: "+err.Error())
				continue
			}
			a := answer{m: p.m, exact: out.Exact}
			a.lower, _ = new(big.Rat).SetString(out.Lower) // nil when missing
			a.upper, _ = new(big.Rat).SetString(out.Upper)
			cross.add(in.name, a)
			if !extra {
				gaps.add(what, a)
			}
			if len(out.Bad) > 0 {
				rep.fail(true, what, out.Bad...)
				continue
			}
			solves = append(solves, hardSolve{pair: p, out: &out, rss: rss, end: time.Now(), traced: tr, extra: extra})
		}
	}
	return solves, mainS
}

func runBudgetHard(cfg *config, rep *report) error {
	var setups []float64
	var insts []hardInst
	var hash string
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		insts = hardInstances(cfg.seed)
		sh := newStreamHash()
		for _, in := range insts {
			sh.add(in.name, hypergraphText(in.h), fmt.Sprint(in.measures), in.satReduction)
		}
		hash = sh.String()
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.stamp["stream_hash"] = hash
	rep.stamp["budget_ms"] = hardBudget.Milliseconds()
	var sizes []string
	for _, in := range insts {
		sizes = append(sizes, fmt.Sprintf("%s:%dv/%de", in.name, in.h.NumVertices(), in.h.NumEdges()))
	}
	rep.notef("instances: %s", strings.Join(sizes, " "))
	cross := newCrossCheck()
	dur := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		gaps := gapBook{}
		solves, mainS := hardPasses(cfg, rep, insts, dur, false, cross, gaps)
		if err := hardEndToEnd(rep, insts, solves, mainS, gaps, setups); err != nil {
			return err
		}
	} else {
		solves, _ := hardPasses(cfg, rep, insts, dur, true, cross, gapBook{})
		m := rep.metrics
		hardProbes(cfg, rep, m)
		agg, spans := newTraceAgg(), newSpanLog()
		var stragglers, tracedLat, plainLat []float64
		for i, s := range solves {
			if !s.traced {
				plainLat = append(plainLat, s.out.ElapsedMS)
				continue
			}
			tracedLat = append(tracedLat, s.out.ElapsedMS)
			agg.add(s.out.Trace)
			stragglers = append(stragglers, float64(s.out.Stragglers))
			end := spans.at(s.end)
			sid := spans.add(int64(i+1), 0, "solve.Solve", "solve", end-s.out.ElapsedMS, end)
			spans.addLanes(int64(i+1), sid, s.out.Trace, end-s.out.ElapsedMS, end)
		}
		agg.metrics(m)
		m["solve.stragglers"] = mean(stragglers)
		m["telemetry.overhead_pct"] = overheadPct(tracedLat, plainLat)
		selfMetrics(spans, int64(len(tracedLat)), m)
		rep.notef("%s", agg.holes())
		if err := spans.write(spanPath(cfg)); err != nil {
			return err
		}
	}
	crossFailures(rep, cross)
	return nil
}

func hardLatencies(solves []hardSolve) []float64 {
	var out []float64
	for _, s := range solves {
		if !s.extra {
			out = append(out, s.out.ElapsedMS)
		}
	}
	return out
}

// hardEndToEnd computes budget-hard's end-to-end metrics; mainS is the
// time spent on the pairs' first solves of each pass.
func hardEndToEnd(rep *report, insts []hardInst, solves []hardSolve, mainS float64, gaps gapBook, setups []float64) error {
	m := rep.metrics
	lat := hardLatencies(solves)
	m["setup_s"] = median(setups)
	m["latency_p50_ms"] = median(lat)
	p, v, err := tailPercentile(lat, 99)
	if err != nil {
		return err
	}
	m["latency_p99_ms"] = v
	rep.notef("latency tail: p%g of %d samples", p, len(lat))
	var good, exact int64
	var rss float64
	closing := map[hardPair][]float64{}
	for _, s := range solves {
		rss = math.Max(rss, s.rss)
		if s.out.Exact {
			exact++
		}
		if closingSet(insts[s.pair.inst].name, s.pair.m) {
			t := float64(hardBudget.Milliseconds())
			if s.out.Exact {
				t = s.out.ElapsedMS
			}
			closing[s.pair] = append(closing[s.pair], t)
		}
		if !s.extra && s.out.ElapsedMS <= hardSLO {
			good++
		}
	}
	// Each closing pair's median time to exact, combined by geometric
	// mean: the plain median of the samples would fall between two pairs'
	// clusters and swing with either.
	var perPair []float64
	for _, ts := range closing {
		perPair = append(perPair, median(ts))
	}
	m["throughput_rps"] = float64(len(lat)) / mainS
	m["slo_rate_rps"] = float64(good) / mainS
	// Over every solve, the closing-set repetitions included: which of the
	// seed's random instances close is a coin flip per seed, and the
	// repetitions' share keeps the figure from swinging with it.
	m["exact_share"] = ratio(float64(exact), float64(len(solves)))
	m["gap_geomean"] = gaps.geomean()
	m["exact_p50_ms"] = geomean(perPair)
	m["peak_rss_mb"] = rss
	return nil
}

// hardProbes runs the layer probes, each leg in a child capped at
// probeCap, and writes the core, ordenc and approx per-layer metrics. A
// leg that fails counts as a failed request.
func hardProbes(cfg *config, rep *report, m map[string]float64) {
	var subproblems, memoHits int64
	var lognRuns, lognDone float64
	for _, leg := range probeLegs() {
		raw, _, killed, err := runIsolated(cfg, "probe", leg, false, probeCap+childGrace)
		rep.attempted++
		var out probeOut
		switch {
		case killed:
			out = probeOut{MS: float64((probeCap + childGrace).Milliseconds())}
		case err == nil:
			err = json.Unmarshal(raw, &out)
		}
		if err != nil {
			rep.fail(false, "probe "+leg, err.Error())
			continue
		}
		rep.notef("probe %-32s %9.2f ms finished=%v", leg, out.MS, out.Finished)
		parts := strings.Split(leg, "/")
		switch parts[0] {
		case "check":
			m["core.check_ms."+parts[1]] += out.MS
			subproblems += out.Subproblems
			memoHits += out.MemoHits
		case "ordenc":
			m["ordenc.ghw_check_ms"] += out.MS
		case "minfill":
			m["core.minfill_ms."+parts[1]] += out.MS
		case "logn":
			m["approx.logn_ms."+parts[1]] += out.MS
			lognRuns++
			if out.Finished {
				lognDone++
			}
		}
	}
	m["core.subproblems"] = float64(subproblems)
	m["core.memo_hit_ratio"] = ratio(float64(memoHits), float64(memoHits+subproblems))
	m["approx.logn_finished"] = ratio(lognDone, lognRuns)
}
