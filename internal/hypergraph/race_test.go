package hypergraph

import (
	"sync"
	"testing"
)

// TestConcurrentLazyIndexBuild shares an un-indexed hypergraph across
// goroutines that all hit the lazily-built incidence index through the
// read accessors. Run under -race this pins the guarantee the solve
// subsystem relies on: the first reader builds the index exactly once
// and everyone else proceeds lock-free — no BuildIndex call required.
func TestConcurrentLazyIndexBuild(t *testing.T) {
	for name, build := range map[string]bool{"lazy": false, "prebuilt": true} {
		t.Run(name, func(t *testing.T) {
			h := Grid(4, 4)
			if build {
				h.BuildIndex()
			}
			mid := SetOf(5, 6, 9, 10)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := NewEdgeSet(h.NumEdges())
					for i := 0; i < 50; i++ {
						switch (g + i) % 5 {
						case 0:
							if len(h.ComponentsOf(mid, nil)) == 0 {
								t.Error("ComponentsOf: no components")
							}
						case 1:
							buf = h.EdgesIntersectingSet(mid, buf)
							if buf.IsEmpty() {
								t.Error("EdgesIntersectingSet: empty")
							}
						case 2:
							if h.DegreeOf(0) <= 0 {
								t.Error("DegreeOf(0) <= 0")
							}
						case 3:
							if h.CoveringEdge(h.Edge(0)) < 0 {
								t.Error("CoveringEdge: edge 0 not covered by itself")
							}
						case 4:
							if h.IncidentEdges(5).IsEmpty() {
								t.Error("IncidentEdges(5): empty")
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentInducedSub exercises concurrent derived-hypergraph
// construction, which the per-component solver does when fanning out.
func TestConcurrentInducedSub(t *testing.T) {
	h := Grid(4, 4)
	h.BuildIndex()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub, _, _ := h.ExtractEdges([]int{0, 1, 2})
				if sub.NumEdges() != 3 {
					t.Error("ExtractEdges: wrong edge count")
				}
				if len(sub.ComponentsOf(NewVertexSet(sub.NumVertices()), nil)) == 0 {
					t.Error("sub ComponentsOf: empty")
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentEdgeIDByName: the edge-name map is also built lazily on
// first lookup; concurrent readers (run under -race) must all see the
// first edge carrying each name, interleaved with incidence-index users.
func TestConcurrentEdgeIDByName(t *testing.T) {
	h := New()
	h.AddEdge("a", "x", "y")
	h.AddEdge("b", "y", "z")
	h.AddEdge("a", "z", "w") // duplicate name: lookups return edge 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if e, ok := h.EdgeIDByName("a"); !ok || e != 0 {
					t.Errorf("EdgeIDByName(a) = %d, %v; want 0, true", e, ok)
				}
				if e, ok := h.EdgeIDByName("b"); !ok || e != 1 {
					t.Errorf("EdgeIDByName(b) = %d, %v; want 1, true", e, ok)
				}
				if _, ok := h.EdgeIDByName("c"); ok {
					t.Error("EdgeIDByName(c) found a missing edge")
				}
				h.DegreeOf(1)
			}
		}()
	}
	wg.Wait()
}
