package hypertree_test

// Ablation benchmarks for the library's main design choices: the
// size and cost of the BIP subedge closure versus the full closure f⁺,
// exact versus greedy integral covers in the Theorem 6.23 approximation,
// LP-based support reduction on or off, and the effect of the
// memoization in det-k-decomp (measured indirectly through repeated
// subproblems on grids).

import (
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/core"
	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
)

// BenchmarkAblationSubedgeClosure — f(H,k) under BIP stays small where
// f⁺ explodes with the rank (the point of Theorem 4.11/4.15).
func BenchmarkAblationSubedgeClosure(b *testing.B) {
	// High rank with tiny intersections: the regime where f⁺ is 2^rank
	// per edge but f(H,k) stays m^{k+1}·2^{ik}.
	rng := rand.New(rand.NewSource(4))
	h := hypergraph.RandomBIP(rng, 40, 8, 14, 1)
	b.Run("bip_f", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subs, err := core.BIPSubedges(h, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(subs)), "subedges")
		}
	})
	b.Run("full_fplus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subs, err := core.FullSubedgeClosure(h, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(subs)), "subedges")
		}
	})
}

// BenchmarkAblationIntegralCover — exact branch-and-bound versus greedy
// ln(n) set cover inside the Theorem 6.23 approximation.
func BenchmarkAblationIntegralCover(b *testing.B) {
	h := hypergraph.Clique(9)
	target := h.Vertices()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cover.EdgeCover(h, target, 0)
			b.ReportMetric(float64(len(c)), "cover-size")
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cover.GreedyEdgeCover(h, target)
			b.ReportMetric(float64(len(c)), "cover-size")
		}
	})
}

// BenchmarkAblationSupportReduction — the Lemma 5.6 LP-based rewrite:
// cost of one support reduction versus the raw cover it starts from.
func BenchmarkAblationSupportReduction(b *testing.B) {
	h := hypergraph.UnboundedSupport(12)
	_, gamma := cover.FractionalEdgeCover(h, h.Vertices())
	b.Run("with_reduction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := cover.BoundSupport(h, gamma)
			b.ReportMetric(float64(len(out.Support())), "support")
		}
	})
	b.Run("raw_cover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, g := cover.FractionalEdgeCover(h, h.Vertices())
			b.ReportMetric(float64(len(g.Support())), "support")
		}
	})
}

// BenchmarkAblationCheckHDWidths — det-k-decomp's cost as the target
// width k grows (the m^k guess space for fixed instance).
func BenchmarkAblationCheckHDWidths(b *testing.B) {
	g := hypergraph.Grid(3, 4)
	for k := 2; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if d := core.CheckHD(g, k); d == nil {
					b.Fatal("grid3x4 has hw ≤ 4")
				}
			}
		})
	}
}

// BenchmarkAblationMinFillVsExact — heuristic versus exact fhw: the
// quality/cost trade of the baseline.
func BenchmarkAblationMinFillVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	h := hypergraph.RandomBIP(rng, 12, 8, 3, 2)
	b.Run("minfill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, _ := core.MinFillFHD(h)
			f, _ := w.Float64()
			b.ReportMetric(f, "width")
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, _ := core.ExactFHW(h)
			f, _ := w.Float64()
			b.ReportMetric(f, "width")
		}
	})
}
