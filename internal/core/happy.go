package core

import (
	"distcolor/internal/graph"
)

// happySet classifies the alive vertices of g into rich/poor and computes
// the happy set A (Section 3): v is rich when richTest(deg_alive(v)) holds;
// a rich vertex is happy when its radius-r ball inside the rich subgraph
// contains a witness vertex (witness(deg_alive(w)) — degree ≤ d−1 in the
// paper's Theorem 1.3 instantiation) or induces a non-Gallai graph.
//
// The classification is exact. Fast paths: witnesses are found by one
// multi-source BFS; components whose every ball saturates (r ≥ 2·ecc bound)
// are classified once; only the remaining vertices of non-Gallai components
// get individual ball inspections.
func happySet(g *graph.Graph, alive []bool, radius int,
	richTest func(degAlive int, v int) bool,
	witness func(degAlive int, v int) bool) (IterationStats, []int, []int) {

	n := g.N()
	var st IterationStats
	richMask := make([]bool, n)
	degAlive := g.DegreesInMask(alive, nil)
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		st.Alive++
		if richTest(degAlive[v], v) {
			richMask[v] = true
			st.Rich++
		} else {
			st.Poor++
		}
	}
	rich := make([]int, 0, st.Rich)
	for v, ok := range richMask {
		if ok {
			rich = append(rich, v)
		}
	}

	happyMask := make([]bool, n)
	// (a) witness path: multi-source BFS inside G[rich] from the witnesses.
	var sources []int
	for _, v := range rich {
		if witness(degAlive[v], v) {
			sources = append(sources, v)
		}
	}
	if len(sources) > 0 {
		tr := g.AcquireTraversal()
		tr.Run(sources, richMask, radius)
		for _, v := range rich {
			if tr.Reached(v) {
				happyMask[v] = true
				st.HappyLow++
			}
		}
		g.ReleaseTraversal(tr)
	}

	// (b) non-Gallai balls, per component of G[rich].
	scratch := make([]bool, n)
	var ballMask []bool // made on first use by the per-vertex fallback
	for _, comp := range g.Components(richMask) {
		allHappy := true
		for _, v := range comp {
			if !happyMask[v] {
				allHappy = false
				break
			}
		}
		if allHappy {
			continue
		}
		// Component-level Gallai test.
		for _, v := range comp {
			scratch[v] = true
		}
		compGallai := g.IsGallaiForest(scratch)
		if compGallai {
			// Every ball is an induced connected subgraph of a Gallai tree,
			// hence a Gallai tree: nobody gains happiness here.
			for _, v := range comp {
				scratch[v] = false
			}
			continue
		}
		// Saturation fast path: if radius ≥ 2·ecc(v0) then every ball is
		// the whole (non-Gallai) component.
		ecc0 := g.Eccentricity(comp[0], scratch)
		if radius >= 2*ecc0 {
			for _, v := range comp {
				if !happyMask[v] {
					happyMask[v] = true
					st.HappyGal++
				}
			}
			for _, v := range comp {
				scratch[v] = false
			}
			continue
		}
		// Exact per-vertex fallback.
		if ballMask == nil {
			ballMask = make([]bool, n)
		}
		for _, v := range comp {
			if happyMask[v] {
				continue
			}
			ball := g.Ball(v, radius, scratch)
			for _, u := range ball {
				ballMask[u] = true
			}
			if !g.IsGallaiForest(ballMask) {
				happyMask[v] = true
				st.HappyGal++
			}
			for _, u := range ball {
				ballMask[u] = false
			}
		}
		for _, v := range comp {
			scratch[v] = false
		}
	}

	happy := make([]int, 0, st.HappyLow+st.HappyGal) // each happy vertex counted once
	for _, v := range rich {
		if happyMask[v] {
			happy = append(happy, v)
		}
	}
	st.Happy = len(happy)
	return st, rich, happy
}
