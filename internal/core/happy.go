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
//
// The n-sized masks come from sc and are all false again on return: each
// is cleared through the vertex lists that set it.
func happySet(g *graph.Graph, alive []bool, radius int, sc *peelScratch,
	richTest func(degAlive int, v int) bool,
	witness func(degAlive int, v int) bool) (IterationStats, []int, []int) {

	n := g.N()
	var st IterationStats
	richMask, happyMask, scratch := sc.rich, sc.happy, sc.comp
	sc.deg = g.DegreesInMask(alive, sc.deg)
	degAlive := sc.deg
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

	defer func() {
		for _, v := range rich {
			richMask[v], happyMask[v] = false, false
		}
	}()
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
		if sc.ball == nil {
			sc.ball = make([]bool, n)
		}
		ballMask := sc.ball
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

// peelScratch holds the n-sized per-vertex masks that every peel iteration
// and extension layer of one run shares, so a layer costs what its own
// vertices cost instead of an n-sized allocation per mask. Between uses
// every mask is all false: each user clears what it set through its own
// vertex lists.
type peelScratch struct {
	rich, happy, comp []bool
	ball              []bool // made on first use by happySet's per-vertex fallback
	deg               []int  // alive degrees, overwritten by every iteration
}

func newPeelScratch(n int) *peelScratch {
	return &peelScratch{rich: make([]bool, n), happy: make([]bool, n), comp: make([]bool, n)}
}
