package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hypertree/internal/corpus"
	"hypertree/internal/hypergraph"
	"hypertree/internal/sat"
	"hypertree/internal/solve"
)

// This file generates every workload's inputs from the seed. The program
// under test receives only the generated bytes or hypergraphs; the
// references the checker uses (GOLDEN.tsv widths, satisfiability of the
// reduced formulas) are computed here, never by the solver.

var allMeasures = []solve.Measure{solve.HW, solve.GHW, solve.FHW}

// corpusInst is one testdata/corpus instance: its file bytes and the
// golden ghw width recorded in GOLDEN.tsv.
type corpusInst struct {
	name   string
	data   []byte
	golden *big.Rat
}

// loadCorpus reads every instance file of dir and the golden widths of
// dir/GOLDEN.tsv, sorted by name. Every instance must have a golden row.
func loadCorpus(dir string) ([]corpusInst, error) {
	golden, err := readGoldenWidths(filepath.Join(dir, "GOLDEN.tsv"))
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []corpusInst
	for _, e := range ents {
		if e.IsDir() || e.Name() == "GOLDEN.tsv" {
			continue
		}
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		w, ok := golden[name]
		if !ok {
			return nil, fmt.Errorf("corpus: %s has no GOLDEN.tsv row", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, corpusInst{name: name, data: data, golden: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus: no instances in %s", dir)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// readGoldenWidths parses the name and width columns of a GOLDEN.tsv.
func readGoldenWidths(path string) (map[string]*big.Rat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*big.Rat{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		fields := strings.Split(t, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s: bad line %q", path, t)
		}
		w, ok := new(big.Rat).SetString(fields[1])
		if !ok {
			return nil, fmt.Errorf("%s: bad width in %q", path, t)
		}
		out[fields[0]] = w
	}
	return out, sc.Err()
}

// corpusRequest is one corpus-cold request: an instance under a measure.
type corpusRequest struct {
	inst int
	m    solve.Measure
}

// corpusPass returns pass p of the corpus-cold stream: every instance
// under every measure, in an order drawn from (seed, p).
func corpusPass(seed int64, p int, n int) []corpusRequest {
	reqs := make([]corpusRequest, 0, n*len(allMeasures))
	for i := 0; i < n; i++ {
		for _, m := range allMeasures {
			reqs = append(reqs, corpusRequest{i, m})
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(p)))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// hardInst is one budget-hard instance with the measures it runs under.
type hardInst struct {
	name     string
	h        *hypergraph.Hypergraph
	measures []solve.Measure
	// satReduction marks a sat.BuildReduction instance whose formula has
	// a satisfying assignment (found by brute force here): then ghw ≤ 2
	// and fhw ≤ 2 by Theorem 3.2.
	satReduction bool
}

// hardInstances builds the budget-hard instance list for a seed: the
// fixed grids and hypercycle, three random instances drawn in order from
// rand.NewSource(seed), and the Theorem 3.2 reductions of two random
// 3SAT formulas.
func hardInstances(seed int64) []hardInst {
	rng := rand.New(rand.NewSource(seed))
	out := []hardInst{
		{name: "grid4x6", h: hypergraph.Grid(4, 6), measures: allMeasures},
		{name: "grid5x5", h: hypergraph.Grid(5, 5), measures: allMeasures},
		{name: "grid6x6", h: hypergraph.Grid(6, 6), measures: allMeasures},
		{name: "hypercycle20", h: hypergraph.HyperCycle(20, 4, 2), measures: allMeasures},
		{name: "bip30", h: hypergraph.RandomBIP(rng, 30, 40, 4, 2), measures: allMeasures},
		{name: "bdeg40", h: hypergraph.RandomBoundedDegree(rng, 40, 50, 4, 3), measures: allMeasures},
		{name: "bdeg200", h: hypergraph.RandomBoundedDegree(rng, 200, 250, 4, 3), measures: allMeasures},
	}
	srng := rand.New(rand.NewSource(seed))
	for _, sz := range [][2]int{{2, 1}, {3, 2}} {
		cnf := sat.Random3SAT(srng, sz[0], sz[1])
		out = append(out, hardInst{
			name:         fmt.Sprintf("reduction%dv%dc", sz[0], sz[1]),
			h:            sat.BuildReduction(cnf).H,
			measures:     allMeasures[1:],
			satReduction: bruteForceSAT(cnf),
		})
	}
	return out
}

// bruteForceSAT reports whether some assignment satisfies every clause.
func bruteForceSAT(c *sat.CNF) bool {
	for a := 0; a < 1<<c.NumVars; a++ {
		ok := true
		for _, cl := range c.Clauses {
			hit := false
			for _, l := range cl {
				v := int(l)
				if v < 0 {
					v = -v
				}
				if (a>>(v-1)&1 == 1) == (l > 0) {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// hardPair is one (instance, measure) solve of a budget-hard pass.
type hardPair struct {
	inst int
	m    solve.Measure
}

func hardPairs(insts []hardInst) []hardPair {
	var out []hardPair
	for i, in := range insts {
		for _, m := range in.measures {
			out = append(out, hardPair{i, m})
		}
	}
	return out
}

// closingSet reports whether a pair belongs to exact_p50_ms's fixed
// closing set {hw, ghw} × {grid4x6, grid5x5, hypercycle20}.
func closingSet(name string, m solve.Measure) bool {
	return m != solve.FHW && (name == "grid4x6" || name == "grid5x5" || name == "hypercycle20")
}

// replayRequest is one serve-replay request.
type replayRequest struct {
	path     string
	body     []byte
	inst     int // corpus instance index, or -1 for a fresh instance
	key      string
	m        solve.Measure
	hostData []byte // the hypergraph text the body carries
}

// Request-mix constants of serve-replay.
const (
	replayDecomposeShare = 0.3 // /decompose; the rest go to /width
	replayVariants       = 4   // renamed copies of each corpus instance
	replayTimeoutMS      = 1000
)

// corpusVariants returns the renamed copies of a corpus instance in its
// own format: variant 0 is the file as it is, the others permute vertex
// names (edge-list, JSON) or vertex numbers (PACE) without changing the
// structure, so every copy has the same canonical cache key.
func corpusVariants(in corpusInst, seed int64, idx int) ([][]byte, error) {
	h, f, err := corpus.DecodeBytes(in.data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	out := [][]byte{in.data}
	rng := rand.New(rand.NewSource(seed*7919 + int64(idx)))
	for v := 1; v < replayVariants; v++ {
		perm := rng.Perm(h.NumVertices())
		out = append(out, encodeRenamed(h, f, perm))
	}
	return out, nil
}

// encodeRenamed writes h in format f with vertex i renamed to the name
// (or number) of vertex perm[i]. Edges keep their order and list their
// vertices in ascending id order, so first-occurrence numbering — and
// with it the canonical key — is unchanged.
func encodeRenamed(h *hypergraph.Hypergraph, f corpus.Format, perm []int) []byte {
	var b bytes.Buffer
	switch f {
	case corpus.FormatPACE:
		fmt.Fprintf(&b, "p htd %d %d\n", h.NumVertices(), h.NumEdges())
		for e := 0; e < h.NumEdges(); e++ {
			b.WriteString(strconv.Itoa(e + 1))
			h.Edge(e).ForEach(func(v int) bool {
				b.WriteByte(' ')
				b.WriteString(strconv.Itoa(perm[v] + 1))
				return true
			})
			b.WriteByte('\n')
		}
	case corpus.FormatJSON:
		type edge struct {
			Name     string   `json:"name"`
			Vertices []string `json:"vertices"`
		}
		edges := make([]edge, h.NumEdges())
		for e := range edges {
			edges[e].Name = edgeName(h, e)
			h.Edge(e).ForEach(func(v int) bool {
				edges[e].Vertices = append(edges[e].Vertices, h.VertexName(perm[v]))
				return true
			})
		}
		data, _ := json.Marshal(map[string]any{"edges": edges}) // plain strings cannot fail
		b.Write(data)
	default:
		writeEdgeList(&b, h, nil, func(v int) string { return h.VertexName(perm[v]) })
	}
	return b.Bytes()
}

// writeEdgeList writes h in the edge-list format, its edges in the given
// order (nil: as they are) and its vertices under the given naming.
func writeEdgeList(b *bytes.Buffer, h *hypergraph.Hypergraph, order []int, name func(int) string) {
	if order == nil {
		order = make([]int, h.NumEdges())
		for e := range order {
			order[e] = e
		}
	}
	for i, e := range order {
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString(edgeName(h, e))
		b.WriteByte('(')
		first := true
		h.Edge(e).ForEach(func(v int) bool {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(name(v))
			return true
		})
		b.WriteByte(')')
	}
	b.WriteString(".\n")
}

func edgeName(h *hypergraph.Hypergraph, e int) string {
	if n := h.EdgeName(e); n != "" {
		return n
	}
	return "e" + strconv.Itoa(e+1)
}

// freshPool is the set of RandomBIP instances (8–13 vertices, two edges
// fewer than vertices, arity ≤ 3, intersections ≤ 2) that serve-replay's
// fresh requests are drawn from, ten per vertex count. The pool is the
// same for every seed, so every run's misses cost the same; what makes
// each fresh request a cache miss is a seeded reordering of its edges,
// which changes the canonical key.
func freshPool() []*hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(freshPoolSeed))
	var pool []*hypergraph.Hypergraph
	for i := 0; i < 60; i++ {
		nv := 8 + i%6
		pool = append(pool, hypergraph.RandomBIP(rng, nv, nv-2, 3, 2))
	}
	return pool
}

const freshPoolSeed = 20180611

// replayGen generates serve-replay's request stream one request at a
// time, the same sequence for the same seed. Every fifth request is
// fresh: a freshPool instance with its edges reordered and its vertices
// renamed. The others repeat renamed corpus copies. The mix is stratified
// so that every seed sends the same composition: repeats cycle through
// seeded shuffles of all instance × measure pairs, fresh requests cycle
// through the pool and rotate the measures, so every pool instance comes
// under each measure in turn. The variant, the edge order and the
// endpoint (30% /decompose) are drawn at random.
type replayGen struct {
	rng               *rand.Rand
	phase             int
	variants          [][][]byte
	pool              []*hypergraph.Hypergraph
	deck              []corpusRequest
	i, repeats, fresh int
}

func newReplayGen(seed int64, phase int, variants [][][]byte, pool []*hypergraph.Hypergraph) *replayGen {
	return &replayGen{rng: rand.New(rand.NewSource(seed*1_000_033 + int64(phase))), phase: phase, variants: variants, pool: pool}
}

func (g *replayGen) next() replayRequest {
	rng := g.rng
	r := replayRequest{path: "/width"}
	if rng.Float64() < replayDecomposeShare {
		r.path = "/decompose"
	}
	if g.i%5 != 4 {
		if len(g.deck) == 0 {
			g.deck = corpusPass(rng.Int63(), g.repeats, len(g.variants))
		}
		r.inst, r.m, g.deck = g.deck[0].inst, g.deck[0].m, g.deck[1:]
		r.hostData = g.variants[r.inst][rng.Intn(len(g.variants[r.inst]))]
		r.key = fmt.Sprintf("c%d", r.inst)
		g.repeats++
	} else {
		r.inst = -1
		r.m = allMeasures[(g.fresh+g.fresh/len(g.pool))%len(allMeasures)]
		r.hostData = shuffledEdgeList(g.pool[g.fresh%len(g.pool)], rng)
		r.key = fmt.Sprintf("f%d.%d", g.phase, g.i)
		g.fresh++
	}
	g.i++
	r.body, _ = json.Marshal(map[string]any{ // plain strings cannot fail
		"hypergraph": string(r.hostData),
		"measure":    r.m.String(),
		"timeout_ms": replayTimeoutMS,
	})
	return r
}

// take returns the next n requests.
func (g *replayGen) take(n int) []replayRequest {
	out := make([]replayRequest, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// shuffledEdgeList writes h in the edge-list format with its edges in a
// random order and its vertices renamed by a random permutation.
func shuffledEdgeList(h *hypergraph.Hypergraph, rng *rand.Rand) []byte {
	order := rng.Perm(h.NumEdges())
	names := rng.Perm(h.NumVertices())
	var b bytes.Buffer
	writeEdgeList(&b, h, order, func(v int) string { return "v" + strconv.Itoa(names[v]+1) })
	return b.Bytes()
}

// streamHash digests a workload's generated inputs so two runs can show
// they replayed the same stream.
type streamHash struct{ h []byte }

func newStreamHash() *streamHash { return &streamHash{} }

func (s *streamHash) add(parts ...any) {
	d := sha256.New()
	d.Write(s.h)
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			d.Write(v)
		case string:
			d.Write([]byte(v))
		default:
			fmt.Fprint(d, v)
		}
		d.Write([]byte{0})
	}
	s.h = d.Sum(nil)
}

func (s *streamHash) String() string { return hex.EncodeToString(s.h)[:16] }

// hypergraphText renders h in the edge-list format, for stream hashes.
func hypergraphText(h *hypergraph.Hypergraph) []byte {
	var b bytes.Buffer
	writeEdgeList(&b, h, nil, h.VertexName)
	return b.Bytes()
}
