package main

import (
	"fmt"

	"hypertree/internal/telemetry"
)

// counterLanes flush their engine or SAT counters into the trace only
// when a Check or SAT call returns normally, so a run of one that is
// canceled mid-call, or never closed, leaves the request's counter sums
// incomplete.
var counterLanes = map[string]bool{"detk": true, "bip": true, "fhd-check": true, "sat-ord": true, "sat-ord-lb": true}

// engineLanes are the lanes that run the internal/core engine.
var engineLanes = map[string]bool{"detk": true, "bip": true, "fhd-check": true}

type laneStat struct {
	starts, ends, wins int64
	wallMS             float64
}

// traceAgg reduces the solve traces of one traced phase to per-layer
// metrics. It reports trace holes instead of dropping them.
type traceAgg struct {
	requests        int64
	lanes           map[string]*laneStat
	unclosed        int64 // strategy_start without strategy_end
	countersPartial int64 // counter-flushing lane runs canceled or unclosed
	countersZero    int64 // requests whose engine lanes ran but report no subproblems
	preprocessMS    []float64
	blocks          []float64
	sum             telemetry.Counters
}

func newTraceAgg() *traceAgg { return &traceAgg{lanes: map[string]*laneStat{}} }

func (a *traceAgg) lane(name string) *laneStat {
	s := a.lanes[name]
	if s == nil {
		s = &laneStat{}
		a.lanes[name] = s
	}
	return s
}

// add folds one request's trace summary in. Cache hits carry no lanes.
func (a *traceAgg) add(sum *telemetry.Summary) {
	if sum == nil {
		return
	}
	a.requests++
	type key struct {
		block int
		lane  string
	}
	open := map[key]bool{}
	engineRan := false
	for _, e := range sum.Events {
		switch e.Kind {
		case "preprocess":
			a.preprocessMS = append(a.preprocessMS, e.AtMS)
			var iso, rem, blk int
			if _, err := fmt.Sscanf(e.Detail, "isolated=%d removed=%d blocks=%d", &iso, &rem, &blk); err == nil {
				a.blocks = append(a.blocks, float64(blk))
			}
		case "strategy_start":
			open[key{e.Block, e.Strategy}] = true
			a.lane(e.Strategy).starts++
			engineRan = engineRan || engineLanes[e.Strategy]
		case "strategy_end":
			delete(open, key{e.Block, e.Strategy})
			s := a.lane(e.Strategy)
			s.ends++
			s.wallMS += e.DurMS
			if e.Detail == "winner" || e.Detail == "incumbent" {
				s.wins++
			}
			if e.Detail == "canceled" && counterLanes[e.Strategy] {
				a.countersPartial++
			}
		}
	}
	for k := range open {
		a.unclosed++
		if counterLanes[k.lane] {
			a.countersPartial++
		}
	}
	if engineRan && sum.Counters.EngineSubproblems == 0 {
		a.countersZero++
	}
	c := sum.Counters
	a.sum.EngineSubproblems += c.EngineSubproblems
	a.sum.EngineMemoHits += c.EngineMemoHits
	a.sum.LPSolves += c.LPSolves
	a.sum.LPCold += c.LPCold
	a.sum.SATConflicts += c.SATConflicts
	a.sum.ApproxImprovePasses += c.ApproxImprovePasses
	a.sum.ApproxImproved += c.ApproxImproved
}

// metrics writes the trace-derived per-layer metrics into m.
func (a *traceAgg) metrics(m map[string]float64) {
	n := float64(a.requests)
	m["solve.preprocess_ms"] = median(a.preprocessMS)
	m["solve.blocks_per_request"] = mean(a.blocks)
	m["solve.lane_unclosed"] = float64(a.unclosed)
	m["solve.lane_counters_partial"] = float64(a.countersPartial)
	m["solve.lane_counters_zero"] = float64(a.countersZero)
	for _, l := range lanes {
		s := a.lane(l)
		m["solve.lane."+l+".wall_ms"] = ratio(s.wallMS, float64(s.ends))
		m["solve.lane."+l+".win_share"] = ratio(float64(s.wins), float64(s.starts))
	}
	m["lp.solves"] = ratio(float64(a.sum.LPSolves), n)
	m["lp.cold_share"] = ratio(float64(a.sum.LPCold), float64(a.sum.LPSolves))
	m["sat.conflicts"] = ratio(float64(a.sum.SATConflicts), n)
	m["approx.improve_yield"] = ratio(float64(a.sum.ApproxImproved), float64(a.sum.ApproxImprovePasses))
	if _, ok := m["core.subproblems"]; !ok {
		m["core.subproblems"] = ratio(float64(a.sum.EngineSubproblems), n)
		m["core.memo_hit_ratio"] = ratio(float64(a.sum.EngineMemoHits), float64(a.sum.EngineMemoHits+a.sum.EngineSubproblems))
	}
}

// holes describes the trace holes for the human-readable output.
func (a *traceAgg) holes() string {
	return fmt.Sprintf("trace holes: %d lane runs never closed, %d counter-flushing lane runs canceled or unclosed (their engine/SAT counters are missing from the sums), %d requests ran an engine lane yet report 0 subproblems",
		a.unclosed, a.countersPartial, a.countersZero)
}

// selfMetrics writes each layer's mean self time per request.
func selfMetrics(l *spanLog, requests int64, m map[string]float64) {
	st := l.selfTimes()
	for _, layer := range selfLayers {
		m["self."+layer+"_ms"] = ratio(st[layer], float64(requests))
	}
}

// overheadPct is the tracing overhead: the traced requests' median
// latency over the untraced ones', in percent.
func overheadPct(traced, untraced []float64) float64 {
	return 100 * (median(traced) - median(untraced)) / median(untraced)
}
