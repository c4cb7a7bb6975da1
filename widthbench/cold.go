package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// corpus-cold: a closed loop of nproc clients solving the 30 corpus
// instances × {hw, ghw, fhw} through solve.Solver.Solve with product
// defaults and a 10s timeout. Every pass gets a fresh Solver, so every
// request misses the cache; request bytes are decoded inside the timed
// region.

const (
	coldTimeout = 10 * time.Second
	coldSLO     = 100.0 // ms: a request slower than this misses the limit
	setupReps   = 5     // set-ups per run; setup_s is their median
)

// coldLoad is the corpus-cold set-up: instances, references and the
// stream hash.
type coldLoad struct {
	insts []corpusInst
	hash  string
}

func coldSetup(cfg *config) (*coldLoad, error) {
	insts, err := loadCorpus(filepath.Join(cfg.root, "testdata", "corpus"))
	if err != nil {
		return nil, err
	}
	sh := newStreamHash()
	for _, in := range insts {
		sh.add(in.name, in.data, in.golden.RatString())
	}
	for p := 0; p < 64; p++ {
		for _, r := range corpusPass(cfg.seed, p, len(insts)) {
			sh.add(r.inst, r.m)
		}
	}
	return &coldLoad{insts: insts, hash: sh.String()}, nil
}

// coldPhase is one closed-loop measurement window.
type coldPhase struct {
	start     time.Time
	done      []timed   // untraced requests
	latMS     []float64 // untraced requests
	tracedLat []float64
	traced    int64
	exactLat  []timed // latency of exact answers; unclosed ones count as the timeout
	completed int64
	exact     int64
	agg       *traceAgg
	spans     *spanLog
	decodeUS  []float64
	keyUS     []float64
	checkMS   []float64
	rhoUS     []float64
	hits      int64 // answers served from the cache
	gaps      gapBook
	rssMB     []float64 // peak RSS of each rssWindow
}

// coldMeasure runs the closed loop for dur. With traced set, every other
// request carries a solve trace and spans are recorded around its layer
// calls, so traced and untraced requests share the same conditions;
// checks and probes run outside the timed region either way.
func coldMeasure(cfg *config, rep *report, load *coldLoad, dur time.Duration, traced bool, cross *crossCheck) *coldPhase {
	ph := &coldPhase{gaps: gapBook{}}
	if traced {
		ph.agg, ph.spans = newTraceAgg(), newSpanLog()
	}
	n := len(load.insts)
	perPass := n * len(allMeasures)
	// Requests are claimed in stream order; a pass's Solver lives as long
	// as some client still holds it.
	var (
		mu     sync.Mutex
		next   int
		pass   = -1
		reqs   []corpusRequest
		solver *solve.Solver
	)
	claim := func() (int, corpusRequest, *solve.Solver) {
		mu.Lock()
		defer mu.Unlock()
		k := next
		next++
		if p := k / perPass; p != pass {
			pass, reqs = p, corpusPass(cfg.seed, p, n)
			solver = solve.NewSolverWithCache(solve.NewCacheBytes(solve.DefaultCacheSize, solve.DefaultCacheBytes), 0)
		}
		return k, reqs[k%perPass], solver
	}
	start := time.Now()
	ph.start = start
	deadline := start.Add(dur)
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64, 1)
	go func() { rssDone <- rssWindows(stopRSS) }()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k, r, s := claim()
				coldOne(rep, load.insts[r.inst], r, s, int64(k+1), traced && k%2 == 0, ph, &mu, cross)
			}
		}()
	}
	wg.Wait()
	close(stopRSS)
	ph.rssMB = <-rssDone
	return ph
}

// coldOne runs and checks one request. mu guards ph, rep and cross.
func coldOne(rep *report, in corpusInst, r corpusRequest, solver *solve.Solver, req int64, traced bool, ph *coldPhase, mu *sync.Mutex, cross *crossCheck) {
	ctx := context.Background()
	var tr *telemetry.Trace
	t0 := time.Now()
	h, _, err := corpus.DecodeBytes(in.data)
	t1 := time.Now()
	var res *solve.Result
	var t2 time.Time
	if err == nil {
		if traced {
			ctx, tr = telemetry.WithTrace(ctx)
		}
		t2 = time.Now()
		res, err = solver.Solve(ctx, h, solve.Options{Measure: r.m, Timeout: coldTimeout})
	}
	t3 := time.Now()
	lat := float64(t3.Sub(t0).Nanoseconds()) / 1e6
	what := fmt.Sprintf("%s %s", in.name, r.m)
	if err != nil {
		mu.Lock()
		rep.attempted++
		rep.fail(false, what, err.Error())
		mu.Unlock()
		return
	}

	// Everything below is outside the timed region.
	var sum *telemetry.Summary
	var keyUS float64
	if tr != nil {
		sum = tr.Summary()
		k0 := time.Now()
		_ = solve.KeyFor(r.m, h) // timed for solve.key_us only
		keyUS = float64(time.Since(k0).Nanoseconds()) / 1e3
	}
	a := answer{m: r.m, lower: res.Lower, upper: res.Upper, exact: res.Exact, witness: res.Witness}
	c0 := time.Now()
	bad := checkAnswer(a, reference{golden: in.golden})
	checkMS := since(c0)
	var rhoUS []float64
	r0 := time.Now()
	if tr != nil && r.m == solve.FHW && res.Witness != nil {
		for _, nd := range res.Witness.Nodes {
			b0 := time.Now()
			cover.FractionalEdgeCover(h, nd.Bag)
			rhoUS = append(rhoUS, float64(time.Since(b0).Nanoseconds())/1e3)
		}
	}
	r1 := time.Now()

	mu.Lock()
	defer mu.Unlock()
	rep.attempted++
	cross.add(in.name, a)
	ph.gaps.add(what, a)
	if len(bad) > 0 {
		rep.fail(true, what, bad...)
		return
	}
	ph.completed++
	if res.FromCache {
		ph.hits++
	}
	if tr != nil {
		ph.tracedLat = append(ph.tracedLat, lat)
		ph.traced++
	} else {
		ph.latMS = append(ph.latMS, lat)
		ph.done = append(ph.done, timed{t3.Sub(ph.start).Seconds(), lat})
	}
	if res.Exact {
		ph.exact++
		ph.exactLat = append(ph.exactLat, timed{t3.Sub(ph.start).Seconds(), lat})
	} else {
		ph.exactLat = append(ph.exactLat, timed{t3.Sub(ph.start).Seconds(), float64(coldTimeout.Milliseconds())})
	}
	if tr != nil {
		ph.agg.add(sum)
		ph.decodeUS = append(ph.decodeUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		ph.keyUS = append(ph.keyUS, keyUS)
		ph.checkMS = append(ph.checkMS, checkMS)
		ph.rhoUS = append(ph.rhoUS, rhoUS...)
		root := ph.spans.addTimes(req, 0, "request", "bench", t0, t3)
		ph.spans.addTimes(req, root, "corpus.DecodeBytes", "corpus", t0, t1)
		sid := ph.spans.addTimes(req, root, "solve.Solve", "solve", t2, t3)
		ph.spans.addLanes(req, sid, sum, ph.spans.at(t2), ph.spans.at(t3))
		ph.spans.addTimes(req, 0, "decomp.Validate", "decomp", c0, r0)
		if len(rhoUS) > 0 {
			ph.spans.addTimes(req, 0, "cover.FractionalEdgeCover", "cover", r0, r1)
		}
	}
}

func runCorpusCold(cfg *config, rep *report) error {
	var setups []float64
	var load *coldLoad
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		l, err := coldSetup(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		load = l
	}
	rep.stamp["stream_hash"] = load.hash
	rep.stamp["timeout_ms"] = coldTimeout.Milliseconds()
	rep.stamp["instances"] = len(load.insts)
	cross := newCrossCheck()
	dur := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		ph := coldMeasure(cfg, rep, load, dur, false, cross)
		if err := coldEndToEnd(rep, ph, setups); err != nil {
			return err
		}
	} else {
		traced := coldMeasure(cfg, rep, load, dur, true, cross)
		m := rep.metrics
		traced.agg.metrics(m)
		m["corpus.decode_us"] = median(traced.decodeUS)
		m["solve.key_us"] = median(traced.keyUS)
		m["solve.cache_hit_share"] = ratio(float64(traced.hits), float64(traced.completed))
		m["decomp.validate_ms"] = median(traced.checkMS)
		m["cover.rhostar_us"] = median(traced.rhoUS)
		m["telemetry.overhead_pct"] = overheadPct(traced.tracedLat, traced.latMS)
		selfMetrics(traced.spans, traced.traced, m)
		if err := coldExactDPProbe(load, m); err != nil {
			return err
		}
		rep.notef("%s", traced.agg.holes())
		if err := traced.spans.write(spanPath(cfg)); err != nil {
			return err
		}
	}
	crossFailures(rep, cross)
	return nil
}

// coldEndToEnd computes corpus-cold's end-to-end metrics.
func coldEndToEnd(rep *report, ph *coldPhase, setups []float64) error {
	m := rep.metrics
	m["setup_s"] = median(setups)
	f, err := byWindow(coldSLO, ph.done)
	if err != nil {
		return err
	}
	m["latency_p50_ms"], m["latency_p99_ms"] = f.p50, f.p99
	m["throughput_rps"], m["slo_rate_rps"] = f.rate, f.goodRate
	rep.notef("figures: medians over %gs rate windows and %d latency windows of %d samples; %d samples", statWindow, f.windows, latWindow, len(ph.done))
	m["exact_share"] = ratio(float64(ph.exact), float64(ph.completed))
	m["gap_geomean"] = ph.gaps.geomean()
	fe, err := byWindow(coldSLO, ph.exactLat)
	if err != nil {
		return err
	}
	m["exact_p50_ms"] = fe.p50
	m["peak_rss_mb"] = median(ph.rssMB)
	return nil
}

// coldExactDPProbe times core.ExactGHWCtx and core.ExactFHWCtx over the
// corpus, the exact-dp lane's kernel outside the race.
func coldExactDPProbe(load *coldLoad, m map[string]float64) error {
	var ghw, fhw float64
	for _, in := range load.insts {
		h, _, err := corpus.DecodeBytes(in.data)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), coldTimeout)
		t0 := time.Now()
		_, _, errG := core.ExactGHWCtx(ctx, h)
		t1 := time.Now()
		_, _, errF := core.ExactFHWCtx(ctx, h)
		t2 := time.Now()
		cancel()
		if errG != nil || errF != nil {
			return fmt.Errorf("exact-dp probe on %s: %v %v", in.name, errG, errF)
		}
		ghw += float64(t1.Sub(t0).Nanoseconds()) / 1e6
		fhw += float64(t2.Sub(t1).Nanoseconds()) / 1e6
	}
	m["core.exactdp_ms.ghw"] = ghw
	m["core.exactdp_ms.fhw"] = fhw
	return nil
}

// rssWindow is the span over which one peak RSS sample is taken.
const rssWindow = 2 * time.Second

// rssWindows samples this process's peak RSS (VmHWM) once per rssWindow
// and then resets it (clear_refs 5), until stop is closed. It returns the
// windows' peaks; peak_rss_mb is their median, which a single garbage
// collection landing early or late in the run cannot move.
func rssWindows(stop <-chan struct{}) []float64 {
	pid := os.Getpid()
	var peaks []float64
	t := time.NewTicker(rssWindow)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return append(peaks, procPeakRSSMB(pid))
		case <-t.C:
			peaks = append(peaks, procPeakRSSMB(pid))
			// Without the reset the windows report the running peak,
			// which is still a peak RSS, only a less steady one.
			_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
		}
	}
}

func spanPath(cfg *config) string {
	return filepath.Join(cfg.buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
