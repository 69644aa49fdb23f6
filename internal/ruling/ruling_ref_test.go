package ruling

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// referenceCompute is Compute as it was before the merge grouped rulers in
// arrays: one map from ID prefix to members per bit level, and one map of
// components holding a bit-0 member per group. Compute must reproduce its
// forest exactly.
func referenceCompute(nw *local.Network, mask []bool, u []int, alpha int) *Forest {
	g := nw.G
	n := g.N()
	tr := g.NewTraversal()
	compID := make([]int, n)
	for i := range compID {
		compID[i] = -1
	}
	var compDiamUB []int
	for v := 0; v < n; v++ {
		if (mask != nil && !mask[v]) || compID[v] != -1 {
			continue
		}
		tr.Run([]int{v}, mask, -1)
		id := len(compDiamUB)
		for _, u32 := range tr.Order() {
			compID[u32] = id
		}
		compDiamUB = append(compDiamUB, 2*tr.MaxDist())
	}
	isRuler := make([]bool, n)
	for _, v := range u {
		isRuler[v] = true
	}
	levels := bits.Len(uint(n))
	zeroComps := map[int]bool{}
	for bit := 0; bit < levels; bit++ {
		groups := map[int][]int{}
		for v := 0; v < n; v++ {
			if isRuler[v] {
				groups[nw.ID[v]>>(bit+1)] = append(groups[nw.ID[v]>>(bit+1)], v)
			}
		}
		for _, members := range groups {
			var zeros []int
			hasOne := false
			clear(zeroComps)
			for _, v := range members {
				if (nw.ID[v]>>bit)&1 == 0 {
					zeros = append(zeros, v)
					zeroComps[compID[v]] = true
				} else {
					hasOne = true
				}
			}
			if len(zeros) == 0 || !hasOne {
				continue
			}
			var slowZeros []int
			for _, z := range zeros {
				if compDiamUB[compID[z]] > alpha-1 {
					slowZeros = append(slowZeros, z)
				}
			}
			if len(slowZeros) > 0 {
				tr.Run(slowZeros, mask, alpha-1)
			}
			for _, v := range members {
				if (nw.ID[v]>>bit)&1 != 1 {
					continue
				}
				c := compID[v]
				if zeroComps[c] && compDiamUB[c] <= alpha-1 {
					isRuler[v] = false
				} else if len(slowZeros) > 0 && tr.Reached(v) {
					isRuler[v] = false
				}
			}
		}
	}
	f := &Forest{Alpha: alpha, Parent: make([]int, n), Depth: make([]int, n), InTree: make([]bool, n)}
	for v := 0; v < n; v++ {
		f.Parent[v], f.Depth[v] = -1, -1
		if isRuler[v] {
			f.Roots = append(f.Roots, v)
		}
	}
	tr.Run(f.Roots, mask, -1)
	keep := make([]bool, n)
	for _, v := range u {
		for x := v; x != -1 && !keep[x]; x = tr.Parent(x) {
			keep[x] = true
		}
	}
	for v := 0; v < n; v++ {
		if keep[v] {
			f.InTree[v] = true
			f.Parent[v], f.Depth[v] = tr.Parent(v), tr.Dist(v)
			f.MaxDepth = max(f.MaxDepth, f.Depth[v])
		}
	}
	return f
}

// mixedGraph is a disjoint union of short and long paths and cycles and
// small random graphs, so that under a small α some components saturate
// (diameter bound ≤ α−1, merged by component identity) and others need
// the bounded BFS.
func mixedGraph(rng *rand.Rand) *graph.Graph {
	var parts []*graph.Graph
	for k := 2 + rng.IntN(6); k > 0; k-- {
		switch rng.IntN(3) {
		case 0:
			parts = append(parts, gen.Path(1+rng.IntN(40)))
		case 1:
			parts = append(parts, gen.Cycle(3+rng.IntN(40)))
		default:
			m := 2 + rng.IntN(25)
			parts = append(parts, gen.GNP(m, 3.0/float64(m), rng))
		}
	}
	return gen.Disjoint(parts...)
}

// TestComputeMatchesMapMerge compares Compute with referenceCompute on
// random graphs, random ID permutations, random masks and small α.
func TestComputeMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	saturated, slow := 0, 0
	for trial := 0; trial < 300; trial++ {
		g := mixedGraph(rng)
		n := g.N()
		nw := local.NewShuffledNetwork(g, rng)
		var mask []bool
		if trial%3 != 0 {
			mask = make([]bool, n)
			for v := range mask {
				mask[v] = rng.IntN(7) > 0
			}
		}
		var u []int
		for v := 0; v < n; v++ {
			if (mask == nil || mask[v]) && (trial%4 == 0 || rng.IntN(2) == 0) {
				u = append(u, v)
			}
		}
		alpha := 2 + rng.IntN(7)
		got, err := Compute(context.Background(), nw, nil, "", mask, u, alpha)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := referenceCompute(nw, mask, u, alpha)
		if !slices.Equal(got.Roots, want.Roots) || !slices.Equal(got.Parent, want.Parent) ||
			!slices.Equal(got.Depth, want.Depth) || got.MaxDepth != want.MaxDepth {
			t.Fatalf("trial %d (n=%d, α=%d): roots %v depth %d, want roots %v depth %d",
				trial, n, alpha, got.Roots, got.MaxDepth, want.Roots, want.MaxDepth)
		}
		// Count the component kinds the trial mixed, so the test proves
		// it reached both merge paths.
		tr := g.NewTraversal()
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			if seen[v] || (mask != nil && !mask[v]) {
				continue
			}
			tr.Run([]int{v}, mask, -1)
			for _, w := range tr.Order() {
				seen[w] = true
			}
			if 2*tr.MaxDist() > alpha-1 {
				slow++
			} else {
				saturated++
			}
		}
	}
	if saturated < 100 || slow < 100 {
		t.Fatalf("components: %d saturated, %d needing BFS; want both ≥ 100", saturated, slow)
	}
}

// TestComputeRejectsBadIDs: the merge runs ⌈log₂(n+1)⌉ levels, which
// separates only IDs in 1..n, so an ID outside that range (or one held
// twice) must be an error rather than a silently wrong ruling set.
func TestComputeRejectsBadIDs(t *testing.T) {
	g := gen.Path(8)
	u := allVertices(g)
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"above n", []int{1, 2, 3, 4, 5, 6, 7, 9}},
		{"zero", []int{0, 2, 3, 4, 5, 6, 7, 8}},
		{"negative", []int{1, 2, 3, -4, 5, 6, 7, 8}},
		{"duplicate", []int{1, 2, 3, 4, 5, 6, 7, 7}},
		{"too few", []int{1, 2, 3, 4, 5, 6, 7}},
	} {
		nw := &local.Network{G: g, ID: tc.ids}
		if _, err := Compute(context.Background(), nw, nil, "", nil, u, 3); err == nil {
			t.Errorf("%s: IDs %v accepted", tc.name, tc.ids)
		}
	}
	nw := &local.Network{G: g, ID: []int{8, 7, 6, 5, 4, 3, 2, 1}}
	if _, err := Compute(context.Background(), nw, nil, "", nil, u, 3); err != nil {
		t.Errorf("a permutation of 1..n rejected: %v", err)
	}
}
