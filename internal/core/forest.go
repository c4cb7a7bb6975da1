package core

import (
	"fmt"
	"sort"

	"hypertree/internal/hypergraph"
)

// IFNode is a node of the intersection forest of Algorithm 2. set(v) is a
// class (an intersection of edges), edges(v) its maximal type, levels(v)
// the sequence positions it passed, and fail marks dead ends.
type IFNode struct {
	Set      hypergraph.VertexSet
	Edges    []int // maximal type: all edges containing Set
	Levels   []int
	Fail     bool
	Children []*IFNode
}

// IntersectionForest is the forest IF(ξ) for a sequence
// ξ = (ξ₁, …, ξ_max) of groups of edges (Definition 5.13 ff).
type IntersectionForest struct {
	H     *hypergraph.Hypergraph
	Xi    [][]int
	Trees []*IFNode
}

// classes returns C(ξi): the distinct non-empty intersections of
// non-empty subsets of the group's edges (Definition 5.9 applied to the
// subhypergraph of the group).
func classes(h *hypergraph.Hypergraph, group []int) []hypergraph.VertexSet {
	seen := map[string]bool{}
	var out []hypergraph.VertexSet
	var rec func(start int, inter hypergraph.VertexSet)
	rec = func(start int, inter hypergraph.VertexSet) {
		if inter != nil && !inter.IsEmpty() {
			if k := inter.Key(); !seen[k] {
				seen[k] = true
				out = append(out, inter)
			}
		}
		if inter != nil && inter.IsEmpty() {
			return // further intersections stay empty
		}
		for i := start; i < len(group); i++ {
			var ni hypergraph.VertexSet
			if inter == nil {
				ni = h.Edge(group[i]).Clone()
			} else {
				ni = inter.Intersect(h.Edge(group[i]))
			}
			rec(i+1, ni)
		}
	}
	rec(0, nil)
	return out
}

// maximalType returns the maximal type of a class: all edges of H
// containing it.
func maximalType(h *hypergraph.Hypergraph, set hypergraph.VertexSet) []int {
	var es []int
	for e := 0; e < h.NumEdges(); e++ {
		if set.IsSubsetOf(h.Edge(e)) {
			es = append(es, e)
		}
	}
	return es
}

// BuildIntersectionForest runs Algorithm 2 on the sequence ξ of edge
// groups, producing IF(ξ).
func BuildIntersectionForest(h *hypergraph.Hypergraph, xi [][]int) *IntersectionForest {
	f := &IntersectionForest{H: h, Xi: xi}
	if len(xi) == 0 {
		return f
	}
	for _, c := range classes(h, xi[0]) {
		f.Trees = append(f.Trees, &IFNode{
			Set:    c,
			Edges:  maximalType(h, c),
			Levels: []int{1},
		})
	}
	for i := 2; i <= len(xi); i++ {
		cls := classes(h, xi[i-1])
		for _, root := range f.Trees {
			expandForestLevel(h, root, i, cls)
		}
	}
	return f
}

// expandForestLevel applies the Dead End / Passing / Expand cases of
// Algorithm 2 to the leaves whose max level is i-1.
func expandForestLevel(h *hypergraph.Hypergraph, n *IFNode, i int, cls []hypergraph.VertexSet) {
	if len(n.Children) > 0 {
		for _, c := range n.Children {
			expandForestLevel(h, c, i, cls)
		}
	}
	if n.Fail || len(n.Levels) == 0 || n.Levels[len(n.Levels)-1] != i-1 {
		return
	}
	anyNonEmpty := false
	for _, c := range cls {
		inter := n.Set.Intersect(c)
		switch {
		case inter.IsEmpty():
			// Dead end for this class only; node fails if no class works.
		case inter.Equal(n.Set):
			anyNonEmpty = true
			if n.Levels[len(n.Levels)-1] != i {
				n.Levels = append(n.Levels, i) // Passing
			}
		default:
			anyNonEmpty = true
			n.Children = append(n.Children, &IFNode{ // Expand
				Set:    inter,
				Edges:  maximalType(h, inter),
				Levels: []int{i},
			})
		}
	}
	if !anyNonEmpty {
		n.Fail = true
	}
}

// Fringe returns F(ξ): the sets of all ok-nodes at the last level
// (Definition 5.14).
func (f *IntersectionForest) Fringe() []hypergraph.VertexSet {
	last := len(f.Xi)
	var out []hypergraph.VertexSet
	seen := map[string]bool{}
	var rec func(*IFNode)
	rec = func(n *IFNode) {
		if !n.Fail {
			for _, l := range n.Levels {
				if l == last {
					if k := n.Set.Key(); !seen[k] {
						seen[k] = true
						out = append(out, n.Set)
					}
					break
				}
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, t := range f.Trees {
		rec(t)
	}
	return out
}

// MaxDepth returns the depth of the deepest tree in the forest (Fact 2 of
// Lemma 5.15 bounds it by degree(H) − 1).
func (f *IntersectionForest) MaxDepth() int {
	var depth func(*IFNode) int
	depth = func(n *IFNode) int {
		d := 0
		for _, c := range n.Children {
			if cd := depth(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	m := 0
	for _, t := range f.Trees {
		if d := depth(t); d > m {
			m = d
		}
	}
	return m
}

// HdkSubedges computes the subedge function h_{d,k} of Lemma 5.17:
//
//	h_{d,k}(H) = E(H) ∩· (⋓_{2^{d²k}} ⋒_d E(H)),
//
// all pointwise intersections of edges with unions of at most 2^{d²k}
// intersections of at most d edges. The theoretical union bound 2^{d²k}
// is astronomically generous; maxUnion overrides it (0 keeps the
// theoretical bound capped at maxUnionHard) and maxSets caps the output.
// This is the price of the paper's generality — for the tiny inputs the
// Check(FHD,k) tests use, the closure stays small.
func HdkSubedges(h *hypergraph.Hypergraph, d, k, maxUnion, maxSets int) ([]hypergraph.VertexSet, error) {
	return hdkSubedges(h, d, k, maxUnion, maxSets, nil)
}

// hdkSubedges is HdkSubedges with an optional cancellation channel,
// polled every pollMask+1 steps of both enumerations (see cancel.go).
func hdkSubedges(h *hypergraph.Hypergraph, d, k, maxUnion, maxSets int, done <-chan struct{}) ([]hypergraph.VertexSet, error) {
	const maxUnionHard = 4
	var steps uint32
	poll := func() {
		if steps++; done != nil && steps&pollMask == 0 {
			pollCancel(done)
		}
	}
	if maxUnion <= 0 {
		maxUnion = 1 << uint(d*d*k)
		if maxUnion > maxUnionHard || maxUnion <= 0 {
			maxUnion = maxUnionHard
		}
	}
	// ⋒_d E(H): intersections of ≤ d distinct edges.
	var inters []hypergraph.VertexSet
	seen := map[string]bool{}
	var rec func(start, depth int, cur hypergraph.VertexSet)
	rec = func(start, depth int, cur hypergraph.VertexSet) {
		poll()
		if cur != nil && !cur.IsEmpty() {
			if key := cur.Key(); !seen[key] {
				seen[key] = true
				inters = append(inters, cur)
			}
		}
		if depth == d || (cur != nil && cur.IsEmpty()) {
			return
		}
		for e := start; e < h.NumEdges(); e++ {
			var ni hypergraph.VertexSet
			if cur == nil {
				ni = h.Edge(e).Clone()
			} else {
				ni = cur.Intersect(h.Edge(e))
			}
			rec(e+1, depth+1, ni)
		}
	}
	rec(0, 0, nil)

	// ⋓_maxUnion of the intersections, pointwise intersected with E(H).
	outSeen := map[string]bool{}
	var out []hypergraph.VertexSet
	addOut := func(s hypergraph.VertexSet) error {
		if s.IsEmpty() || outSeen[s.Key()] {
			return nil
		}
		outSeen[s.Key()] = true
		out = append(out, s)
		if maxSets > 0 && len(out) > maxSets {
			return fmt.Errorf("core: h_{d,k} closure exceeds %d sets", maxSets)
		}
		return nil
	}
	var unions func(start, depth int, cur hypergraph.VertexSet) error
	unions = func(start, depth int, cur hypergraph.VertexSet) error {
		poll()
		if cur != nil {
			for e := 0; e < h.NumEdges(); e++ {
				if err := addOut(h.Edge(e).Intersect(cur)); err != nil {
					return err
				}
			}
		}
		if depth == maxUnion {
			return nil
		}
		for i := start; i < len(inters); i++ {
			var nu hypergraph.VertexSet
			if cur == nil {
				nu = inters[i].Clone()
			} else {
				nu = cur.Union(inters[i])
			}
			if err := unions(i+1, depth+1, nu); err != nil {
				return err
			}
		}
		return nil
	}
	if err := unions(0, 0, nil); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}
