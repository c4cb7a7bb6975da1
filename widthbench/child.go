package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hypertree/internal/approx"
	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/ordenc"
	"hypertree/internal/solve"
	"hypertree/internal/telemetry"
)

// budget-hard solves and layer probes each run in a child process of
// their own. Some lanes keep computing after their deadline (the trace
// calls them unclosed); in one long-lived process that work would pile
// up across requests and skew every later measurement, so each child
// answers, and exits with its leftovers.

const (
	hardBudget = time.Second
	probeCap   = time.Second           // context cap of one probe leg
	childGrace = 3 * time.Second       // beyond its cap, a child is killed
	stragglerW = 50 * time.Millisecond // how long after Solve returns stragglers are counted
)

// hardOut is a budget-hard child's answer.
type hardOut struct {
	Lower, Upper string
	Exact        bool
	ElapsedMS    float64
	Strategy     string
	Bad          []string           // checker violations, witness included
	Stragglers   int                // goroutines still running stragglerW after Solve returned (traced only)
	Trace        *telemetry.Summary `json:",omitempty"`
}

// probeOut is one layer-probe leg's outcome.
type probeOut struct {
	MS          float64
	Finished    bool
	Subproblems int64
	MemoHits    int64
}

func runChild(mode string, seed int64, arg string, traced bool) error {
	var out any
	var err error
	switch mode {
	case "hard-solve":
		out, err = childHardSolve(seed, arg, traced)
	case "probe":
		out, err = childProbe(seed, arg)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func childHardSolve(seed int64, arg string, traced bool) (*hardOut, error) {
	idx, err := strconv.Atoi(arg)
	insts := hardInstances(seed)
	pairs := hardPairs(insts)
	if err != nil || idx < 0 || idx >= len(pairs) {
		return nil, fmt.Errorf("bad pair index %q", arg)
	}
	p := pairs[idx]
	in := insts[p.inst]
	ctx := context.Background()
	var tr *telemetry.Trace
	if traced {
		ctx, tr = telemetry.WithTrace(ctx)
	}
	g0 := runtime.NumGoroutine()
	t0 := time.Now()
	res, err := solve.NewSolver(-1, 0).Solve(ctx, in.h, solve.Options{Measure: p.m, Timeout: hardBudget})
	el := since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", in.name, p.m, err)
	}
	out := &hardOut{Exact: res.Exact, ElapsedMS: el, Strategy: res.Strategy}
	if tr != nil {
		out.Trace = tr.Summary()
		time.Sleep(stragglerW)
		out.Stragglers = runtime.NumGoroutine() - g0
	}
	if res.Lower != nil {
		out.Lower = res.Lower.RatString()
	}
	if res.Upper != nil {
		out.Upper = res.Upper.RatString()
	}
	out.Bad = checkAnswer(answer{m: p.m, lower: res.Lower, upper: res.Upper, exact: res.Exact, witness: res.Witness},
		reference{satReduction: in.satReduction})
	return out, nil
}

// closingWidths are the hw = ghw widths of the closing set, the levels
// the check and ordering-encoding probes accept at (and reject one
// below).
var closingWidths = map[string]int{"grid4x6": 3, "grid5x5": 3, "hypercycle20": 2}

// probeLegs lists the budget-hard layer probes: Check(HD/GHD/FHD, k)
// accept and reject legs on the closing set, the ordering encoding on the
// grids, and min-fill and LogN on the instances with open intervals.
func probeLegs() []string {
	var legs []string
	for _, kind := range []string{"hd", "ghd", "fhd"} {
		for _, in := range []string{"grid4x6", "grid5x5", "hypercycle20"} {
			w := closingWidths[in]
			legs = append(legs, fmt.Sprintf("check/%s/%s/%d", kind, in, w), fmt.Sprintf("check/%s/%s/%d", kind, in, w-1))
		}
	}
	legs = append(legs, "ordenc/ghw/grid4x6/3", "ordenc/ghw/grid5x5/3")
	for _, in := range []string{"grid6x6", "bip30", "bdeg40", "bdeg200", "reduction3v2c"} {
		legs = append(legs, "minfill/ghw/"+in, "minfill/fhw/"+in, "logn/integral/"+in, "logn/fractional/"+in)
	}
	return legs
}

// childProbe runs one leg "<op>/<variant>/<instance>[/<k>]".
func childProbe(seed int64, leg string) (*probeOut, error) {
	parts := strings.Split(leg, "/")
	if len(parts) < 3 || (parts[0] == "check" || parts[0] == "ordenc") && len(parts) != 4 {
		return nil, fmt.Errorf("bad probe leg %q", leg)
	}
	var h *hypergraph.Hypergraph
	for _, in := range hardInstances(seed) {
		if in.name == parts[2] {
			h = in.h
		}
	}
	if h == nil {
		return nil, fmt.Errorf("probe leg %q: unknown instance", leg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeCap)
	defer cancel()
	var es core.EngineStats
	var err error
	t0 := time.Now()
	switch parts[0] {
	case "check":
		k, _ := strconv.Atoi(parts[3])
		switch parts[1] {
		case "hd":
			_, err = core.CheckHDOptCtx(ctx, h, k, core.Options{Stats: &es})
		case "ghd":
			_, err = core.CheckGHDViaBIPCtx(ctx, h, k, core.Options{Stats: &es})
		default:
			_, err = core.CheckFHDCtx(ctx, h, big.NewRat(int64(k), 1), core.FHDOptions{Stats: &es})
		}
	case "ordenc":
		k, _ := strconv.Atoi(parts[3])
		var g *ordenc.GHWSearch
		if g, err = ordenc.NewGHWSearch(h, k); err == nil {
			if _, err = g.Check(ctx.Done(), k); err == nil {
				_, err = g.Check(ctx.Done(), k-1)
			}
		}
	case "minfill":
		if parts[1] == "ghw" {
			_, _, err = core.MinFillGHDCtx(ctx, h)
		} else {
			_, _, err = core.MinFillFHDCtx(ctx, h)
		}
	case "logn":
		_, _, err = approx.LogN(ctx, h, approx.Options{Integral: parts[1] == "integral"})
	default:
		return nil, fmt.Errorf("bad probe leg %q", leg)
	}
	return &probeOut{MS: since(t0), Finished: err == nil && ctx.Err() == nil, Subproblems: es.Subproblems, MemoHits: es.MemoHits}, nil
}

// runIsolated runs this binary in a child mode, killing it once it
// outlives limit. It returns the child's stdout and peak RSS in MB;
// killed reports a child stopped at its limit.
func runIsolated(cfg *config, mode, arg string, traced bool, limit time.Duration) (out []byte, rssMB float64, killed bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args := []string{"--child", mode, "--seed", strconv.FormatInt(cfg.seed, 10), "--arg", arg}
	if traced {
		args = append(args, "--trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	out, err = cmd.Output()
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if ctx.Err() != nil {
		return nil, rssMB, true, nil
	}
	return out, rssMB, false, err
}
