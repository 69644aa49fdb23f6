package ruling_test

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"distcolor/internal/core"
	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/ruling"
)

// BenchmarkRulingCompute times the ruling forest of Theorem 1.3's first
// extension step: the rich subgraph (alive degree ≤ d) as mask, all of it
// as U, and the α = 2·radius+2 of core.Run's default ball radius. On
// regular:1e5,3 every vertex is rich and the forest has one root; on
// apollonian:2e4 (d=6, planar6's setting) the rich set falls apart into
// thousands of components. The late-layer case keeps apollonian:2e4's
// rich mask but takes U = 150 rich vertices, the size of planar6's fourth
// extension layer, so it shows whether a small layer costs O(|U|) or O(n).
// As in core's extension, one Workspace serves every call on the network.
func BenchmarkRulingCompute(b *testing.B) {
	cases := []struct {
		name  string
		d     int
		u     int // |U|; 0 = every rich vertex
		build func(*rand.Rand) *graph.Graph
	}{
		{"regular-1e5-3", 3, 0, func(r *rand.Rand) *graph.Graph {
			g, err := gen.RandomRegular(100_000, 3, r)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
		{"apollonian-2e4", 6, 0, func(r *rand.Rand) *graph.Graph { return gen.Apollonian(20_000, r) }},
		{"apollonian-2e4-late-150", 6, 150, func(r *rand.Rand) *graph.Graph { return gen.Apollonian(20_000, r) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(7, uint64(tc.d)))
			g := tc.build(rng)
			nw := local.NewShuffledNetwork(g, rng)
			mask := make([]bool, g.N())
			var u []int
			for v := range mask {
				if g.Degree(v) <= tc.d {
					mask[v] = true
					u = append(u, v)
				}
			}
			if tc.u > 0 {
				rng.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
				u = u[:tc.u]
			}
			radius := int(math.Ceil(core.DefaultBallC * math.Log2(float64(g.N()))))
			ws, err := ruling.NewWorkspace(nw)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Compute(context.Background(), nil, "", mask, u, 2*radius+2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
