package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hypertree/internal/corpus"
	"hypertree/internal/decomp"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// serve-replay: a freshly built and started hgserve driven over loopback
// HTTP with nproc connections, each phase against a fresh server whose
// cache starts empty. 80% of requests repeat renamed copies of the corpus
// instances and should hit the cache; 20% are fresh instances and miss.
//
// The end-to-end run is a closed loop: three phases of a third of the
// run's seconds, each connection sending its next request when the last
// one is answered. The traced run is an open loop at three fixed offered
// rates, timed from each request's due time, that reports each rate's
// latency and the highest rate meeting the SLO as per-layer figures. On
// a 2-CPU host shared with other machines the open loop's p50 at half of
// capacity read anywhere from 1.3 to 260 ms on identical runs, and its p99
// at a tenth of capacity from 63 to 174 ms, as the CPU time the host's
// neighbours steal stalls client and server alike and queues build behind
// the stall; the closed loop's figures move with the stall, not with the
// queue behind it, and are steady enough to gate on.

// replayRates are the open loop's offered rates, about 25%, 50% and 85%
// of the closed-loop capacity on a 2-CPU host (about 900 req/s).
var replayRates = [3]float64{225, 450, 765}

// replayWindow is the number of consecutive requests whose latencies
// form one window. An open-loop rate's latency figures are medians over
// its windows, so a short stall of the shared host moves one window, not
// the figure; a window holds enough samples for a p99 with ten beyond it.
const replayWindow = 1000

// replaySLO is the p99 latency limit, in ms: an open-loop rate must meet
// it for openloop.slo_rate_rps; a closed-loop request within it counts
// for slo_rate_rps.
const replaySLO = 100.0

// hgserve is one running server process.
type hgserve struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
	stderr bytes.Buffer
}

// buildServer builds cmd/hgserve into the build directory. Go skips the
// link when the binary is already up to date.
func buildServer(cfg *config) (string, error) {
	bin := filepath.Join(cfg.buildDir, "hgserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hgserve")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hgserve: %v: %s", err, out)
	}
	return bin, nil
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer starts hgserve with its product defaults and waits until
// /healthz answers.
func startServer(bin string) (*hgserve, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &hgserve{url: "http://" + addr, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("hgserve exited at start: %v: %s", err, s.stderr.String())
		default:
		}
		if resp, err := http.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("hgserve did not become ready")
}

type healthz struct {
	Rejected int64 `json:"rejected"`
	Cache    *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
}

func (s *hgserve) healthz() (healthz, error) {
	var hz healthz
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		return hz, err
	}
	defer resp.Body.Close()
	return hz, json.NewDecoder(resp.Body).Decode(&hz)
}

// stop reads the server's peak RSS, sends SIGTERM and waits for the exit
// (killing it after 15s). It returns the peak RSS in MB.
func (s *hgserve) stop() float64 {
	peak := procPeakRSSMB(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is what we want anyway
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill() // best effort; Wait below reaps it
		<-s.exited
	}
	return peak
}

// procPeakRSSMB reads VmHWM of a live process.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// replayPhase is one phase against one fresh server: closed loop
// (rate 0) or open loop at an offered rate.
type replayPhase struct {
	rate       float64
	start      time.Time
	setupS     float64
	wallS      float64   // closed loop: phase start to the last response
	lat        []float64 // ms per successful untraced request: from the due time (open loop) or the send (closed loop)
	tracedLat  []float64 // the same for traced requests
	done       []timed   // lat of successful untraced requests with their completion times
	exactLat   []timed   // the same for exactness: inexact answers count as the budget
	late       []float64 // ms the open loop's generator sent after the due time
	backlog    []int     // open-loop requests due but not yet picked up, at each dispatch
	completed  int64
	exact      int64
	failed     int64
	shed       int64
	hits       uint64
	lookups    uint64
	rss        float64
	gaps       gapBook
	agg        *traceAgg
	spans      *spanLog
	overheadMS []float64
	decodeUS   []float64
	keyUS      []float64
	checkMS    []float64
}

// grows reports a backlog that rose over the phase: the mean of its last
// third exceeds twice the mean of its first third plus ten requests, a
// margin that bursts at a sustainable rate stay within.
func (ph *replayPhase) grows() bool {
	n := len(ph.backlog)
	if n < 3 {
		return false
	}
	avg := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return avg(ph.backlog[2*n/3:]) > 2*avg(ph.backlog[:n/3])+10
}

// meetsSLO reports p99 within replaySLO, no growing backlog and no
// failure.
func (ph *replayPhase) meetsSLO() bool {
	_, p99, _, err := windowStats(ph.lat)
	return err == nil && p99 <= replaySLO && !ph.grows() && ph.failed == 0
}

// windowStats splits lat (in due order) into windows of at least
// replayWindow requests and returns the medians over windows of each
// window's p50 and p99.
func windowStats(lat []float64) (p50, p99 float64, windows int, err error) {
	windows = max(1, len(lat)/replayWindow)
	var p50s, p99s []float64
	for w := 0; w < windows; w++ {
		win := lat[w*len(lat)/windows : (w+1)*len(lat)/windows]
		v, err := percentile(win, 99)
		if err != nil {
			return 0, 0, 0, err
		}
		p50s, p99s = append(p50s, median(win)), append(p99s, v)
	}
	return median(p50s), median(p99s), windows, nil
}

func (ph *replayPhase) summary() string {
	p50, p99, w, _ := windowStats(ph.lat)
	_, late, _ := tailPercentile(ph.late, 99)
	if ph.rate == 0 {
		return fmt.Sprintf("closed loop: %d done in %.1fs, p50 %.3f ms, %d failed (%d shed), cache hits %d/%d, set-up %.3fs",
			ph.completed, ph.wallS, median(ph.lat), ph.failed, ph.shed, ph.hits, ph.lookups, ph.setupS)
	}
	return fmt.Sprintf("rate %4.0f/s: %d done, over %d windows p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, backlog grows %v, %d failed (%d shed), cache hits %d/%d, SLO met %v",
		ph.rate, ph.completed, w, p50, p99, late, ph.grows(), ph.failed, ph.shed, ph.hits, ph.lookups, ph.meetsSLO())
}

type replayResp struct {
	Lower         string             `json:"lower"`
	Upper         string             `json:"upper"`
	Exact         bool               `json:"exact"`
	Decomposition string             `json:"decomposition"`
	Trace         *telemetry.Summary `json:"trace"`
}

// exchange is one request and what the client saw of it.
type exchange struct {
	r               replayRequest
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
	dispatched      bool
	traced          bool
}

// replaySetup builds and starts a fresh server and prepares the phase's
// request generator, hashing the stream's first requests; its duration is
// one setup_s sample.
func replaySetup(cfg *config, phase int, sh *streamHash) (*hgserve, *replayGen, []corpusInst, error) {
	bin, err := buildServer(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	insts, err := loadCorpus(filepath.Join(cfg.root, "testdata", "corpus"))
	if err != nil {
		return nil, nil, nil, err
	}
	variants := make([][][]byte, len(insts))
	for i, in := range insts {
		if variants[i], err = corpusVariants(in, cfg.seed, i); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, r := range newReplayGen(cfg.seed, phase, variants, freshPool()).take(1000) {
		sh.add(r.path, r.body)
	}
	srv, err := startServer(bin)
	if err != nil {
		return nil, nil, nil, err
	}
	return srv, newReplayGen(cfg.seed, phase, variants, freshPool()), insts, nil
}

// runReplayPhase sets up a fresh server, drives it for durS seconds (in a
// closed loop when rate is 0) and checks every answer afterwards.
// With agg and spans set, every other request is traced into them.
func runReplayPhase(cfg *config, rep *report, phase int, rate, durS float64, agg *traceAgg, spans *spanLog, cross *crossCheck, sh *streamHash) (*replayPhase, error) {
	t0 := time.Now()
	srv, gen, insts, err := replaySetup(cfg, phase, sh)
	if err != nil {
		return nil, err
	}
	ph := &replayPhase{rate: rate, setupS: time.Since(t0).Seconds(), gaps: gapBook{}, agg: agg, spans: spans}
	var got []exchange
	if rate > 0 {
		got = openLoop(cfg, srv.url, gen.take(int(rate*durS)), rate, spans != nil, ph)
	} else {
		got = closedLoop(cfg, srv.url, gen, durS, ph)
	}
	hz, hzErr := srv.healthz()
	ph.rss = srv.stop()
	if hzErr != nil {
		return nil, fmt.Errorf("healthz: %w", hzErr)
	}
	if hz.Cache != nil {
		ph.hits, ph.lookups = hz.Cache.Hits, hz.Cache.Hits+hz.Cache.Misses
	}
	for i := range got {
		replayCheck(rep, ph, &got[i], insts, int64(i+1), cross)
	}
	if ph.shed != hz.Rejected {
		rep.notef("phase %d: client saw %d sheds, hgserve counted %d", phase, ph.shed, hz.Rejected)
	}
	return ph, nil
}

// newClient returns an HTTP client limited to cfg.clients connections.
func newClient(cfg *config) (*http.Client, func()) {
	transport := &http.Transport{MaxConnsPerHost: cfg.clients, MaxIdleConnsPerHost: cfg.clients, DisableCompression: true}
	return &http.Client{Transport: transport}, transport.CloseIdleConnections
}

// post sends one request and records the exchange.
func post(ctx context.Context, client *http.Client, url string, x *exchange) {
	target := url + x.r.path
	if x.traced {
		target += "?trace=1"
	}
	x.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(x.r.body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			x.status = resp.StatusCode
			x.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	x.done, x.err = time.Now(), err
}

// closedLoop runs cfg.clients connections for durS seconds, each sending
// the stream's next request as soon as its last one is answered.
func closedLoop(cfg *config, url string, gen *replayGen, durS float64, ph *replayPhase) []exchange {
	client, closeIdle := newClient(cfg)
	defer closeIdle()
	var (
		mu  sync.Mutex
		got []*exchange
	)
	start := time.Now()
	ph.start = start
	deadline := start.Add(time.Duration(durS * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				x := &exchange{r: gen.next(), dispatched: true}
				got = append(got, x)
				mu.Unlock()
				post(context.Background(), client, url, x)
				x.due = x.sent
			}
		}()
	}
	wg.Wait()
	ph.wallS = time.Since(start).Seconds()
	out := make([]exchange, len(got))
	for i, x := range got {
		out[i] = *x
	}
	return out
}

// openLoop releases each request at its due time, evenly spaced at rate,
// into a queue that cfg.clients connections drain. With traced set every
// other request asks for the solve trace.
func openLoop(cfg *config, url string, reqs []replayRequest, rate float64, traced bool, ph *replayPhase) []exchange {
	got := make([]exchange, len(reqs))
	client, closeIdle := newClient(cfg)
	defer closeIdle()
	durS := float64(len(reqs)) / rate
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration((durS+30)*float64(time.Second)))
	defer cancel()
	queue := make(chan int, len(reqs)) // sized to the sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				post(ctx, client, url, &got[i])
			}
		}()
	}
	start := time.Now()
	ph.start = start
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		ph.late = append(ph.late, since(due))
		ph.backlog = append(ph.backlog, len(queue))
		got[i] = exchange{r: reqs[i], due: due, dispatched: true, traced: traced && i%2 == 0}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return got
}

// replayCheck checks one response and books its outcome.
func replayCheck(rep *report, ph *replayPhase, g *exchange, insts []corpusInst, req int64, cross *crossCheck) {
	r := g.r
	name := r.key
	if r.inst >= 0 {
		name = insts[r.inst].name
	}
	what := fmt.Sprintf("%s %s %s", r.path, name, r.m)
	rep.attempted++
	switch {
	case !g.dispatched:
		ph.failed++
		rep.fail(false, what, "never sent: the phase overran its drain limit")
		return
	case g.err != nil:
		ph.failed++
		rep.fail(false, what, g.err.Error())
		return
	case g.status == http.StatusServiceUnavailable:
		ph.failed++
		ph.shed++
		rep.fail(false, what, "shed (503)")
		return
	case g.status != http.StatusOK:
		ph.failed++
		rep.fail(false, what, fmt.Sprintf("status %d: %s", g.status, g.body))
		return
	}
	var resp replayResp
	if err := json.Unmarshal(g.body, &resp); err != nil {
		ph.failed++
		rep.fail(false, what, "response: "+err.Error())
		return
	}
	d0 := time.Now()
	h, _, err := corpus.DecodeBytes(r.hostData)
	d1 := time.Now()
	if err != nil {
		ph.failed++
		rep.fail(false, what, "decoding the request: "+err.Error())
		return
	}
	_ = solve.KeyFor(r.m, h) // timed for solve.key_us only
	d2 := time.Now()

	a := answer{m: r.m, exact: resp.Exact}
	a.lower, _ = new(big.Rat).SetString(resp.Lower)
	a.upper, _ = new(big.Rat).SetString(resp.Upper)
	var bad []string
	if r.path == "/decompose" {
		w, err := decomp.ParseText(h, resp.Decomposition)
		if err != nil {
			bad = append(bad, "witness does not parse: "+err.Error())
		}
		a.witness = w
	}
	var ref reference
	if r.inst >= 0 {
		ref.golden = insts[r.inst].golden
	}
	bad = append(bad, checkAnswer(a, ref)...)
	d3 := time.Now()
	cross.add(r.key, a)
	ph.gaps.add(r.key+" "+r.m.String(), a)
	if len(bad) > 0 {
		ph.failed++
		rep.fail(true, what, bad...)
		return
	}
	ph.completed++
	lat := float64(g.done.Sub(g.due).Nanoseconds()) / 1e6
	at := g.done.Sub(ph.start).Seconds()
	if g.traced {
		ph.tracedLat = append(ph.tracedLat, lat)
	} else {
		ph.lat = append(ph.lat, lat)
		ph.done = append(ph.done, timed{at, lat})
	}
	if resp.Exact {
		ph.exact++
		ph.exactLat = append(ph.exactLat, timed{at, lat})
	} else {
		ph.exactLat = append(ph.exactLat, timed{at, replayTimeoutMS})
	}
	if !g.traced || resp.Trace == nil {
		return
	}
	ph.agg.add(resp.Trace)
	served := float64(g.done.Sub(g.sent).Nanoseconds()) / 1e6
	ph.overheadMS = append(ph.overheadMS, served-resp.Trace.ElapsedMS)
	ph.decodeUS = append(ph.decodeUS, float64(d1.Sub(d0).Nanoseconds())/1e3)
	ph.keyUS = append(ph.keyUS, float64(d2.Sub(d1).Nanoseconds())/1e3)
	if r.path == "/decompose" {
		ph.checkMS = append(ph.checkMS, float64(d3.Sub(d2).Nanoseconds())/1e6)
	}
	sp := ph.spans
	root := sp.addTimes(req, 0, "http "+r.path, "hgserve", g.sent, g.done)
	end := sp.at(g.done)
	sid := sp.add(req, root, "solve.Solve", "solve", end-resp.Trace.ElapsedMS, end)
	sp.addLanes(req, sid, resp.Trace, end-resp.Trace.ElapsedMS, end)
	sp.addTimes(req, 0, "corpus.DecodeBytes", "corpus", d0, d1)
	sp.addTimes(req, 0, "solve.KeyFor", "solve", d1, d2)
	sp.addTimes(req, 0, "decomp.ParseText+Validate", "decomp", d2, d3)
}

func runServeReplay(cfg *config, rep *report) error {
	cross := newCrossCheck()
	sh := newStreamHash()
	rep.stamp["timeout_ms"] = replayTimeoutMS
	rep.stamp["connections"] = cfg.clients
	var phases []*replayPhase
	var agg *traceAgg
	var spans *spanLog
	if cfg.trace {
		agg, spans = newTraceAgg(), newSpanLog()
	}
	for i := range replayRates {
		rate := 0.0 // closed loop
		if cfg.trace {
			rate = replayRates[i]
		}
		ph, err := runReplayPhase(cfg, rep, i, rate, cfg.seconds/float64(len(replayRates)), agg, spans, cross, sh)
		if err != nil {
			return err
		}
		rep.notef("%s", ph.summary())
		phases = append(phases, ph)
	}
	rep.stamp["stream_hash"] = sh.String()
	crossFailures(rep, cross)
	if cfg.trace {
		rep.stamp["rates_rps"] = replayRates
		return replayLayers(cfg, rep, phases, agg, spans)
	}
	return replayEndToEnd(rep, phases)
}

// replayEndToEnd computes serve-replay's end-to-end metrics over the
// three closed-loop phases.
func replayEndToEnd(rep *report, phases []*replayPhase) error {
	m := rep.metrics
	var setups []float64
	var done, exactLat [][]timed
	var rss float64
	var completed, exact int64
	gaps := gapBook{}
	for _, ph := range phases {
		setups = append(setups, ph.setupS)
		done = append(done, ph.done)
		exactLat = append(exactLat, ph.exactLat)
		completed += ph.completed
		exact += ph.exact
		rss = math.Max(rss, ph.rss)
		for k, v := range ph.gaps {
			gaps[k] = append(gaps[k], v...)
		}
	}
	m["setup_s"] = median(setups)
	f, err := byWindow(replaySLO, done...)
	if err != nil {
		return err
	}
	m["latency_p50_ms"], m["latency_p99_ms"] = f.p50, f.p99
	m["throughput_rps"], m["slo_rate_rps"] = f.rate, f.goodRate
	rep.notef("figures: medians over %gs rate windows and %d latency windows of %d samples", statWindow, f.windows, latWindow)
	fe, err := byWindow(replaySLO, exactLat...)
	if err != nil {
		return err
	}
	m["exact_share"] = ratio(float64(exact), float64(completed))
	m["gap_geomean"] = gaps.geomean()
	m["exact_p50_ms"] = fe.p50
	m["peak_rss_mb"] = rss
	return nil
}

// replayLayers computes the traced open-loop run's per-layer metrics.
func replayLayers(cfg *config, rep *report, phases []*replayPhase, agg *traceAgg, spans *spanLog) error {
	m := rep.metrics
	var overhead, decode, key, check, late, traced, plain []float64
	var shed int64
	var hits, lookups uint64
	for _, ph := range phases {
		if ph.meetsSLO() {
			m["openloop.slo_rate_rps"] = ph.rate
		}
		overhead = append(overhead, ph.overheadMS...)
		decode = append(decode, ph.decodeUS...)
		key = append(key, ph.keyUS...)
		check = append(check, ph.checkMS...)
		late = append(late, ph.late...)
		traced = append(traced, ph.tracedLat...)
		plain = append(plain, ph.lat...)
		shed += ph.shed
		hits += ph.hits
		lookups += ph.lookups
	}
	mid := phases[1]
	m["openloop.p50_ms"], m["openloop.p99_ms"], _, _ = windowStats(mid.lat)
	agg.metrics(m)
	m["hgserve.overhead_p50_ms"] = median(overhead)
	m["hgserve.shed"] = float64(shed)
	if _, v, err := tailPercentile(late, 99); err == nil {
		m["client.late_p99_ms"] = v
	}
	m["corpus.decode_us"] = median(decode)
	m["solve.key_us"] = median(key)
	m["solve.cache_hit_share"] = ratio(float64(hits), float64(lookups))
	m["decomp.validate_ms"] = median(check)
	m["telemetry.overhead_pct"] = overheadPct(traced, plain)
	selfMetrics(spans, int64(len(traced)), m)
	rep.notef("%s", agg.holes())
	return spans.write(spanPath(cfg))
}
