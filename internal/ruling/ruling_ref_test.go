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

// refForest is a forest in vertex-indexed form: Parent[v] and Depth[v] are
// -1 outside the forest, as the reference merges below produce them.
type refForest struct {
	Roots, Parent, Depth []int
	MaxDepth             int
}

// expand turns Compute's compact forest into vertex-indexed form.
func expand(f *Forest, n int) refForest {
	r := refForest{Roots: f.Roots, Parent: make([]int, n), Depth: make([]int, n), MaxDepth: f.MaxDepth}
	for v := range r.Parent {
		r.Parent[v], r.Depth[v] = -1, -1
	}
	for i, v := range f.Tree {
		r.Parent[v], r.Depth[v] = f.Parent[i], f.Depth[i]
	}
	return r
}

func (r refForest) equal(o refForest) bool {
	return slices.Equal(r.Roots, o.Roots) && slices.Equal(r.Parent, o.Parent) &&
		slices.Equal(r.Depth, o.Depth) && r.MaxDepth == o.MaxDepth
}

// trimForest is the phase 2 both references share: the BFS forest of the
// rulers, trimmed to U's root paths by a sweep over all n vertices.
func trimForest(tr *graph.Traversal, n int, isRuler []bool, mask []bool, u []int) refForest {
	var f refForest
	f.Parent, f.Depth = make([]int, n), make([]int, n)
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
			f.Parent[v], f.Depth[v] = tr.Parent(v), tr.Dist(v)
			f.MaxDepth = max(f.MaxDepth, f.Depth[v])
		}
	}
	return f
}

// labelAllComponents labels every component of the masked graph, as the
// references do, with the 2·ecc(first vertex) diameter bound of each.
func labelAllComponents(tr *graph.Traversal, n int, mask []bool) (compID, compDiamUB []int) {
	compID = make([]int, n)
	for i := range compID {
		compID[i] = -1
	}
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
	return compID, compDiamUB
}

// fullSweepCompute is Compute as it was before the merge walked an
// ID-sorted candidate list: every bit level sweeps the whole ID inverse
// 1..n, every component of the mask is labeled, and the forest is
// collected by a sweep over all n vertices. Compute must reproduce its
// forest exactly.
func fullSweepCompute(nw *local.Network, mask []bool, u []int, alpha int) refForest {
	g := nw.G
	n := g.N()
	byID := make([]int32, n+1)
	for v, id := range nw.ID {
		byID[id] = int32(v)
	}
	tr := g.NewTraversal()
	compID, compDiamUB := labelAllComponents(tr, n, mask)
	isRuler := make([]bool, n)
	for _, v := range u {
		isRuler[v] = true
	}
	zeroStamp := make([]int, len(compDiamUB))
	group := 0
	var zeros, slowZeros []int
	for bit := 0; bit < bits.Len(uint(n)); bit++ {
		half := 1 << bit
		for lo := 0; lo <= n; lo += 2 * half {
			mid, hi := min(lo+half, n+1), min(lo+2*half, n+1)
			group++
			zeros = zeros[:0]
			for _, v := range byID[max(lo, 1):mid] {
				if isRuler[v] {
					zeros = append(zeros, int(v))
					zeroStamp[compID[v]] = group
				}
			}
			if len(zeros) == 0 || !slices.ContainsFunc(byID[mid:hi], func(v int32) bool { return isRuler[v] }) {
				continue
			}
			slowZeros = slowZeros[:0]
			for _, z := range zeros {
				if compDiamUB[compID[z]] > alpha-1 {
					slowZeros = append(slowZeros, z)
				}
			}
			if len(slowZeros) > 0 {
				tr.Run(slowZeros, mask, alpha-1)
			}
			for _, v := range byID[mid:hi] {
				if !isRuler[v] {
					continue
				}
				c := compID[v]
				if zeroStamp[c] == group && compDiamUB[c] <= alpha-1 {
					isRuler[v] = false
				} else if len(slowZeros) > 0 && tr.Reached(int(v)) {
					isRuler[v] = false
				}
			}
		}
	}
	return trimForest(tr, n, isRuler, mask, u)
}

// referenceCompute is Compute as it was before the merge grouped rulers in
// arrays: one map from ID prefix to members per bit level, and one map of
// components holding a bit-0 member per group. Compute must reproduce its
// forest exactly.
func referenceCompute(nw *local.Network, mask []bool, u []int, alpha int) refForest {
	g := nw.G
	n := g.N()
	tr := g.NewTraversal()
	compID, compDiamUB := labelAllComponents(tr, n, mask)
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
	return trimForest(tr, n, isRuler, mask, u)
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
		if !expand(got, n).equal(want) {
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

// TestWorkspaceMatchesFullSweep runs many Compute calls on one Workspace
// per network — random graphs, random ID permutations, α in 2..8, random
// masks, and U of every size from one vertex to the whole mask — and
// compares each forest with fullSweepCompute. Reusing the workspace is the
// point: every call must leave its stamps and labels invisible to the next.
func TestWorkspaceMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 3))
	denseU, sparseU := 0, 0
	for trial := 0; trial < 60; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = mixedGraph(rng)
		} else {
			n := 20 + rng.IntN(200)
			g = gen.GNP(n, 2.5/float64(n), rng)
		}
		n := g.N()
		nw := local.NewShuffledNetwork(g, rng)
		ws, err := NewWorkspace(nw)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 8; call++ {
			var mask []bool
			var in []int
			if call%3 != 0 {
				mask = make([]bool, n)
				for v := range mask {
					mask[v] = rng.IntN(5) > 0
				}
			}
			for v := 0; v < n; v++ {
				if mask == nil || mask[v] {
					in = append(in, v)
				}
			}
			if len(in) == 0 {
				continue
			}
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			u := in[:1+rng.IntN(len(in))]
			if dense(len(u), n) {
				denseU++
			} else {
				sparseU++
			}
			alpha := 2 + rng.IntN(7)
			got, err := ws.Compute(context.Background(), nil, "", mask, u, alpha)
			if err != nil {
				t.Fatalf("trial %d call %d: %v", trial, call, err)
			}
			want := fullSweepCompute(nw, mask, u, alpha)
			if !expand(got, n).equal(want) {
				t.Fatalf("trial %d call %d (n=%d, |U|=%d, α=%d): roots %v depth %d, want roots %v depth %d",
					trial, call, n, len(u), alpha, got.Roots, got.MaxDepth, want.Roots, want.MaxDepth)
			}
		}
	}
	// Both ways of ordering U by ID (the inverse sweep and the key sort)
	// must have been exercised.
	if denseU < 50 || sparseU < 50 {
		t.Fatalf("U orderings: %d by sweep, %d by sort; want both ≥ 50", denseU, sparseU)
	}
}
