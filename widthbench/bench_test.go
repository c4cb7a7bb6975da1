package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree/internal/corpus"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/solve"
)

func testCorpus(t *testing.T) []corpusInst {
	t.Helper()
	insts, err := loadCorpus(filepath.Join("..", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

// streams renders each workload's generated inputs for a seed as bytes.
func streams(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	insts := testCorpus(t)
	out := map[string][]byte{}

	var cold bytes.Buffer
	for p := 0; p < 3; p++ {
		for _, r := range corpusPass(seed, p, len(insts)) {
			fmt.Fprintf(&cold, "%d %s\n", r.inst, r.m)
		}
	}
	out["corpus-cold"] = cold.Bytes()

	variants := make([][][]byte, len(insts))
	for i, in := range insts {
		v, err := corpusVariants(in, seed, i)
		if err != nil {
			t.Fatal(err)
		}
		variants[i] = v
	}
	var replay bytes.Buffer
	for _, r := range newReplayGen(seed, 1, variants, freshPool()).take(500) {
		fmt.Fprintf(&replay, "%s %s\n", r.path, r.body)
	}
	out["serve-replay"] = replay.Bytes()

	var hard bytes.Buffer
	for _, in := range hardInstances(seed) {
		fmt.Fprintf(&hard, "%s %v %v\n%s", in.name, in.measures, in.satReduction, hypergraphText(in.h))
	}
	out["budget-hard"] = hard.Bytes()
	return out
}

func TestStreamsFollowTheSeed(t *testing.T) {
	a, again, other := streams(t, 7), streams(t, 7), streams(t, 8)
	for w := range workloads {
		if !bytes.Equal(a[w], again[w]) {
			t.Errorf("%s: the same seed generated different streams", w)
		}
		if bytes.Equal(a[w], other[w]) {
			t.Errorf("%s: different seeds generated the same stream", w)
		}
	}
}

// TestReplayKeys checks that renamed corpus copies share a cache key and
// that fresh requests never do.
func TestReplayKeys(t *testing.T) {
	insts := testCorpus(t)
	variants := make([][][]byte, len(insts))
	for i, in := range insts {
		var err error
		if variants[i], err = corpusVariants(in, 3, i); err != nil {
			t.Fatal(err)
		}
		var want solve.Key
		for v, data := range variants[i] {
			h, _, err := corpus.DecodeBytes(data)
			if err != nil {
				t.Fatalf("%s variant %d: %v", in.name, v, err)
			}
			k := solve.KeyFor(solve.FHW, h)
			if v == 0 {
				want = k
			} else if k != want {
				t.Errorf("%s variant %d: renaming changed the cache key", in.name, v)
			}
		}
	}
	seen := map[solve.Key]bool{}
	for _, r := range newReplayGen(3, 0, variants, freshPool()).take(2000) {
		if r.inst >= 0 {
			continue
		}
		h, _, err := corpus.DecodeBytes(r.hostData)
		if err != nil {
			t.Fatalf("fresh request %s: %v", r.key, err)
		}
		k := solve.KeyFor(r.m, h)
		if seen[k] {
			t.Errorf("fresh request %s repeats an earlier cache key", r.key)
		}
		seen[k] = true
	}
}

// cycle4 returns the 4-cycle (golden ghw 2) and a valid width-2 GHD of it.
func cycle4(t *testing.T) (*hypergraph.Hypergraph, *decomp.Decomp) {
	t.Helper()
	h := hypergraph.MustParse("e1(a,b), e2(b,c), e3(c,d), e4(d,a)")
	d := decomp.New(h)
	bag := func(names ...string) hypergraph.VertexSet {
		s := hypergraph.NewVertexSet(h.NumVertices())
		for _, n := range names {
			v, _ := h.VertexID(n)
			s.Add(v)
		}
		return s
	}
	one := big.NewRat(1, 1)
	root := d.AddNode(-1, bag("a", "b", "c"), cover.Fractional{0: one, 1: one})
	d.AddNode(root, bag("a", "c", "d"), cover.Fractional{2: one, 3: one})
	if err := d.Validate(decomp.GHD); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return h, d
}

func TestCheckerFlagsPlantedErrors(t *testing.T) {
	h, good := cycle4(t)
	r := func(n int64) *big.Rat { return big.NewRat(n, 1) }
	ref := reference{golden: r(2)}

	if bad := checkAnswer(answer{m: solve.GHW, lower: r(2), upper: r(2), exact: true, witness: good}, ref); len(bad) > 0 {
		t.Fatalf("a correct answer was flagged: %v", bad)
	}

	// broken lacks the second node: edges e3 and e4 lie in no bag.
	broken := decomp.New(h)
	broken.AddNode(-1, good.Nodes[0].Bag, good.Nodes[0].Cover)

	planted := map[string]struct {
		a   answer
		ref reference
	}{
		"interval above golden":  {answer{m: solve.GHW, lower: r(3), upper: r(3), exact: true}, ref},
		"interval below golden":  {answer{m: solve.GHW, lower: r(1), upper: r(1), exact: true}, ref},
		"lower above upper":      {answer{m: solve.GHW, lower: r(3), upper: r(2)}, reference{}},
		"exact with a gap":       {answer{m: solve.GHW, lower: r(1), upper: r(2), exact: true}, reference{}},
		"hw upper below golden":  {answer{m: solve.HW, lower: r(1), upper: r(1)}, ref},
		"fhw lower above golden": {answer{m: solve.FHW, lower: r(3), upper: r(3)}, ref},
		"missing upper":          {answer{m: solve.FHW, lower: r(1)}, reference{}},
		"reduction lower":        {answer{m: solve.FHW, lower: r(3), upper: r(4)}, reference{satReduction: true}},
		"invalid witness":        {answer{m: solve.GHW, lower: r(2), upper: r(2), exact: true, witness: broken}, ref},
		"witness width":          {answer{m: solve.GHW, lower: r(1), upper: r(3), witness: good}, ref},
	}
	for name, p := range planted {
		if bad := checkAnswer(p.a, p.ref); len(bad) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}

	text := good.MarshalText()
	if _, err := decomp.ParseText(h, strings.Replace(text, "bag=", "bag=zz,", 1)); err == nil {
		t.Error("a /decompose witness naming an unknown vertex parsed")
	}

	cc := newCrossCheck()
	cc.add("x", answer{m: solve.FHW, lower: r(3), upper: r(3)})
	cc.add("x", answer{m: solve.GHW, lower: r(2), upper: r(2)})
	if len(cc.violations()) == 0 {
		t.Error("fhw.lower > ghw.upper was not flagged")
	}
	cc = newCrossCheck()
	cc.add("y", answer{m: solve.GHW, lower: r(3), upper: r(4)})
	cc.add("y", answer{m: solve.GHW, lower: r(1), upper: r(2)})
	if len(cc.violations()) == 0 {
		t.Error("two contradicting ghw answers were not flagged")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); !errors.Is(err, errFewSamples) {
		t.Errorf("p99 of 999 samples: got %v, want a refusal", err)
	}
	if v, err := percentile(append(xs, 999), 99); err != nil || v != 989 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989", v, err)
	}
	if p, _, err := tailPercentile(xs[:25], 99); err != nil || p != 60 {
		t.Errorf("tail of 25 samples: p%v, %v; want p60", p, err)
	}
	if _, _, err := tailPercentile(xs[:10], 99); !errors.Is(err, errFewSamples) {
		t.Errorf("tail of 10 samples: got %v, want a refusal", err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newSpanLog()
	root := l.add(1, 0, "request", "bench", 0, 10)
	sid := l.add(1, root, "solve.Solve", "solve", 2, 10)
	l.add(1, sid, "lane.detk", "core", 3, 6)
	l.add(1, sid, "lane.bip", "core", 5, 9)
	st := l.selfTimes()
	want := map[string]float64{"bench": 2, "solve": 2, "core": 7}
	for layer, v := range want {
		if st[layer] != v {
			t.Errorf("self time of %s = %v, want %v", layer, st[layer], v)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json's workloads and
// metrics in step with what the benchmark prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
