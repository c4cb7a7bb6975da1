// Command widthbench is the width service's end-to-end and per-layer
// benchmark. It generates one of three seeded workloads, drives the
// program under test with it, checks every answer against references the
// program does not produce, and prints the workload's metrics by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash widthbench/run.sh --workload corpus-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 makes a
// separate traced run that prints the per-layer ones. README.md explains
// the workloads and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the repository checkout the run builds and reads
	buildDir string // where build products and span dumps go
	clients  int    // closed-loop clients and HTTP connections: nproc
}

// report accumulates one run's outcome.
type report struct {
	attempted int64
	failed    int64 // errors, sheds and failed checks
	wrong     int64 // failed checks alone
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the result
	stamp     map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, stamp: map[string]any{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed request with its reasons; it never aborts the run.
func (r *report) fail(wrong bool, what string, reasons ...string) {
	r.failed++
	if wrong {
		r.wrong++
	}
	if r.failed <= 20 {
		r.notef("FAILED %s: %v", what, reasons)
	}
}

var workloads = map[string]func(*config, *report) error{
	"corpus-cold":  runCorpusCold,
	"serve-replay": runServeReplay,
	"budget-hard":  runBudgetHard,
}

func main() {
	workload := flag.String("workload", "", "corpus-cold, serve-replay or budget-hard")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	child := flag.String("child", "", "internal: run one isolated solve or probe leg and print it as JSON")
	arg := flag.String("arg", "", "internal: the child's item")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *seed, *arg, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "widthbench child:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "widthbench: want --workload corpus-cold|serve-replay|budget-hard, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "widthbench:", err)
		os.Exit(1)
	}
	cfg := &config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, buildDir: filepath.Join(root, ".bench_build"),
		clients: runtime.NumCPU(),
	}
	rep := newReport()
	stampRun(cfg, rep)
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "widthbench %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "widthbench %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// stampRun records what a result depends on besides the code.
func stampRun(cfg *config, rep *report) {
	rep.stamp["workload"] = cfg.workload
	rep.stamp["seed"] = cfg.seed
	rep.stamp["seconds"] = cfg.seconds
	rep.stamp["trace"] = cfg.trace
	rep.stamp["nproc"] = runtime.NumCPU()
	rep.stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.stamp["go"] = runtime.Version()
	rep.stamp["git_rev"] = gitRev(cfg.root)
	rep.stamp["clients"] = cfg.clients
}

// gitRev reads the checked-out commit from .git without running git, or
// returns "none" when the checkout carries no .git directory.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := string(head)
	if len(ref) > 5 && ref[:5] == "ref: " {
		name := ref[5 : len(ref)-1]
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return string(b[:len(b)-1])
		}
		return name
	}
	return ref[:len(ref)-1]
}

// finish prints the human-readable lines and returns the result line.
func finish(cfg *config, rep *report) (string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if !cfg.trace {
		rep.metrics["ok_share"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metricOut{v, d.unit}
	}
	stamp, err := json.Marshal(map[string]any{"stamp": rep.stamp})
	if err != nil {
		return "", err
	}
	fmt.Println(string(stamp))
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-36s %14.6g %s\n", cfg.workload, n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%s %-36s %14.6g share (%d of %d attempted; %d failed the answer check)\n",
		cfg.workload, "failed_share", ratio(float64(rep.failed), float64(rep.attempted)),
		rep.failed, rep.attempted, rep.wrong)
	attempted := rep.attempted
	if attempted < 1 {
		return "", fmt.Errorf("no request was attempted")
	}
	res, err := json.Marshal(map[string]any{
		"correct":   rep.wrong == 0,
		"attempted": attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	return string(res), err
}

// since returns the milliseconds elapsed since t.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
