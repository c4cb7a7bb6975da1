package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hypertree/internal/telemetry"
)

// Spans are recorded by the benchmark's own code around each call into a
// layer, kept in memory, written out when the run ends, and reduced to
// per-layer self time: a span's duration minus the part of it that its
// children cover.

// span is one timed call. Times are milliseconds since the run's epoch.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root
	Req    int64   `json:"req"`    // request id shared by a request's spans
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanLog is an append-only span store; a nil *spanLog records nothing,
// which is how untraced phases run.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// at converts a wall time to the log's clock.
func (l *spanLog) at(t time.Time) float64 { return float64(t.Sub(l.epoch).Nanoseconds()) / 1e6 }

// add records a span and returns its id (0 on a nil log).
func (l *spanLog) add(req, parent int64, name, layer string, start, end float64) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Req: req, Name: name, Layer: layer, Start: start, End: end})
	return l.next
}

// addTimes records a span given wall-clock bounds.
func (l *spanLog) addTimes(req, parent int64, name, layer string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	return l.add(req, parent, name, layer, l.at(start), l.at(end))
}

// laneLayer maps a portfolio lane to the package that does its work.
func laneLayer(lane string) string {
	switch lane {
	case "approx-logn":
		return "approx"
	case "sat-ord", "sat-ord-lb":
		return "ordenc"
	default:
		return "core"
	}
}

// addLanes records one child span per portfolio lane found in a solve
// trace, under the solve span that starts at solveStart (ms on the log's
// clock) and ends at solveEnd. A lane with no strategy_end event is
// closed at solveEnd.
func (l *spanLog) addLanes(req, parent int64, sum *telemetry.Summary, solveStart, solveEnd float64) {
	if l == nil || sum == nil {
		return
	}
	type lane struct {
		block int
		name  string
	}
	open := map[lane]float64{}
	for _, e := range sum.Events {
		k := lane{e.Block, e.Strategy}
		switch e.Kind {
		case "strategy_start":
			open[k] = solveStart + e.AtMS
		case "strategy_end":
			start, ok := open[k]
			if !ok {
				start = solveStart + e.AtMS - e.DurMS
			}
			delete(open, k)
			l.add(req, parent, "lane."+e.Strategy, laneLayer(e.Strategy), start, min(solveStart+e.AtMS, solveEnd))
		}
	}
	for k, start := range open {
		l.add(req, parent, "lane."+k.name, laneLayer(k.name), start, solveEnd)
	}
}

// selfTimes returns each layer's total self time in ms: every span's
// duration minus the union of its children's intervals clipped to it.
func (l *spanLog) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][][2]float64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range l.spans {
		out[s.Layer] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total float64
	curS, curE := lo, lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write dumps the spans as JSON lines to path.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
