package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (TestCatalogMatchesBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service sees, printed by every
// untraced run. README.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"slo_rate_rps", "1/s"},
	{"exact_share", "share"},
	{"gap_geomean", "ratio"},
	{"exact_p50_ms", "ms"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
}

// lanes are the portfolio strategies whose wall time and wins are traced.
var lanes = []string{"detk", "sat-ord-lb", "exact-dp", "minfill", "approx-logn", "bip", "fhd-check", "sat-ord"}

// selfLayers are the layers whose span self time is reported.
var selfLayers = []string{"bench", "hgserve", "corpus", "solve", "core", "approx", "ordenc", "decomp", "cover"}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"hgserve.overhead_p50_ms", "ms"},
		{"hgserve.shed", "count"},
		{"client.late_p99_ms", "ms"},
		{"openloop.p50_ms", "ms"},
		{"openloop.p99_ms", "ms"},
		{"openloop.slo_rate_rps", "1/s"},
		{"corpus.decode_us", "us"},
		{"solve.key_us", "us"},
		{"solve.cache_hit_share", "share"},
		{"solve.preprocess_ms", "ms"},
		{"solve.blocks_per_request", "count"},
		{"solve.lane_unclosed", "count"},
		{"solve.lane_counters_partial", "count"},
		{"solve.lane_counters_zero", "count"},
		{"solve.stragglers", "count"},
	}
	for _, l := range lanes {
		defs = append(defs,
			metricDef{fmt.Sprintf("solve.lane.%s.wall_ms", l), "ms"},
			metricDef{fmt.Sprintf("solve.lane.%s.win_share", l), "share"})
	}
	defs = append(defs,
		metricDef{"core.check_ms.hd", "ms"},
		metricDef{"core.check_ms.ghd", "ms"},
		metricDef{"core.check_ms.fhd", "ms"},
		metricDef{"core.subproblems", "count"},
		metricDef{"core.memo_hit_ratio", "ratio"},
		metricDef{"core.exactdp_ms.ghw", "ms"},
		metricDef{"core.exactdp_ms.fhw", "ms"},
		metricDef{"core.minfill_ms.ghw", "ms"},
		metricDef{"core.minfill_ms.fhw", "ms"},
		metricDef{"lp.solves", "count"},
		metricDef{"lp.cold_share", "share"},
		metricDef{"cover.rhostar_us", "us"},
		metricDef{"ordenc.ghw_check_ms", "ms"},
		metricDef{"sat.conflicts", "count"},
		metricDef{"approx.logn_ms.integral", "ms"},
		metricDef{"approx.logn_ms.fractional", "ms"},
		metricDef{"approx.logn_finished", "share"},
		metricDef{"approx.improve_yield", "share"},
		metricDef{"decomp.validate_ms", "ms"},
		metricDef{"telemetry.overhead_pct", "%"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{fmt.Sprintf("self.%s_ms", l), "ms"})
	}
	return defs
}()
