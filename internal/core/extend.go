package core

import (
	"context"
	"fmt"

	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
	"distcolor/internal/ruling"
	"distcolor/internal/seqcolor"
)

type extendStats struct {
	roots    int
	treeSize int
	maxDepth int
}

// extend implements Lemma 3.2: given the current graph (the alive mask),
// its rich set R and happy set A (uncolored; everything else alive is
// colored), it extends the coloring to A, possibly recoloring parts of R.
//
// Steps: (α, α·log n)-ruling forest of G[R] w.r.t. A with α = 2·radius+2;
// uncolor the forest T; (d+1)-color G[T] to schedule a leaves-to-root greedy
// recoloring; finally recolor each root's rich ball with the constructive
// Theorem 1.1 (valid because roots are happy).
//
// richMask is an all-false n-sized scratch mask, returned all false; the
// ruling workspace serves every layer of the run. Apart from them, a layer
// costs what its rich set, forest and root balls cost, whatever n is.
func extend(ctx context.Context, nw *local.Network, ledger *local.Ledger, alive []bool,
	rich, happy []int, colors []int, lists [][]int, radius int,
	richMask []bool, forests *ruling.Workspace) (extendStats, error) {

	g := nw.G
	var st extendStats

	for _, v := range rich {
		richMask[v] = true
	}
	defer func() {
		for _, v := range rich {
			richMask[v] = false
		}
	}()

	// --- Ruling forest: roots pairwise > 2·radius apart so that their rich
	// balls are disjoint with no edges in between.
	alpha := 2*radius + 2
	forest, err := forests.Compute(ctx, ledger, "extend/ruling", richMask, happy, alpha)
	if err != nil {
		return st, fmt.Errorf("ruling forest: %w", err)
	}
	tree, depths, maxDepth, roots := forest.Tree, forest.Depth, forest.MaxDepth, forest.Roots
	st.roots = len(roots)
	st.treeSize = len(tree)
	st.maxDepth = maxDepth

	// --- Uncolor T (the colored part of T is exactly T ∩ S).
	for _, v := range tree {
		colors[v] = Uncolored
	}

	// --- Schedule: proper coloring of H = G[T] with ≤ Δ(H)+1 classes
	// (Δ(H) ≤ d when T ⊆ R, per Theorem 1.3; ≤ Δ(G) for Theorem 6.1),
	// indexed like tree.
	classes := reduce.DegPlusOneList(nw, ledger, "extend/schedule", tree)
	maxClass := 0
	for _, c := range classes {
		maxClass = max(maxClass, c)
	}

	// --- Leaves-to-root greedy: for each depth from deepest to 1, for each
	// class, color that independent set greedily from the lists. Every
	// non-root keeps its parent uncolored, so a free color exists
	// (Observation 5.1). The tree is bucketized by (depth, class) up front —
	// preserving its vertex order inside each bucket, so the greedy visits
	// vertices in exactly the order the nested rescan did — instead of
	// rescanning all of T once per (depth, class) pair. A counting pass
	// first sizes each bucket as its own slice of one backing array.
	buckets := make([][]int, (maxDepth+1)*(maxClass+1))
	size := make([]int, len(buckets))
	for i, d := range depths {
		if d >= 1 {
			size[d*(maxClass+1)+classes[i]]++
		}
	}
	backing := make([]int, len(tree))
	off := 0
	for slot, k := range size {
		buckets[slot] = backing[off : off : off+k]
		off += k
	}
	for i, v := range tree {
		if d := depths[i]; d >= 1 {
			slot := d*(maxClass+1) + classes[i]
			buckets[slot] = append(buckets[slot], v)
		}
	}
	pb := graph.AcquireBitset(0)
	for depth := maxDepth; depth >= 1; depth-- {
		for class := 0; class <= maxClass; class++ {
			worked := false
			for _, v := range buckets[depth*(maxClass+1)+class] {
				if colors[v] != Uncolored {
					continue
				}
				c := pickFreeAlive(g, alive, colors, lists[v], v, pb)
				if c == Uncolored {
					graph.ReleaseBitset(pb)
					return st, fmt.Errorf("layered pass stuck at vertex %d (depth %d)", v, depth)
				}
				colors[v] = c
				worked = true
			}
			if worked && ledger != nil {
				ledger.Charge("extend/layered", 1)
			}
		}
	}
	graph.ReleaseBitset(pb)

	// --- Root balls: uncolor each root's rich ball entirely and recolor it
	// with the constructive Theorem 1.1. Balls of distinct roots are
	// disjoint and non-adjacent (α = 2·radius+2), so the components of the
	// uncolored set are exactly the balls. Only roots is read from here on,
	// so the forest's and the schedule's arrays are garbage while the balls
	// allocate.
	if len(roots) > 0 {
		for _, r := range roots {
			ball := g.Ball(r, radius, richMask)
			for _, u := range ball {
				colors[u] = Uncolored
			}
			if err := colorBallTheorem11(g, alive, colors, lists, ball); err != nil {
				return st, fmt.Errorf("root %d ball: %w", r, err)
			}
		}
		// Collect + recolor each ball: radius+1 rounds, all roots parallel.
		ledger.Charge("extend/rootballs", radius+1)
	}
	return st, nil
}

// colorScanCap mirrors seqcolor's bound on the palette-bitset width; lists
// with colors beyond it (or negative) take the quadratic fallback.
const colorScanCap = 1 << 20

// listWidth returns max(list)+1 when every color fits the bitset fast path,
// or -1 to request the fallback scan.
func listWidth(list []int) int {
	maxc := -1
	for _, c := range list {
		if c < 0 || c >= colorScanCap {
			return -1
		}
		if c > maxc {
			maxc = c
		}
	}
	return maxc + 1
}

// pickFreeAlive returns the first color of list not used by v's colored
// alive neighbors, or Uncolored. b is scratch (any width; reset here). As in
// seqcolor.pickFree, neighbor colors are marked in one pass and the list is
// scanned in its own order, keeping the first-fit tie-break exact.
func pickFreeAlive(g *graph.Graph, alive []bool, colors []int, list []int, v int, b *graph.Bitset) int {
	width := listWidth(list)
	if width < 0 {
		return pickFreeAliveSlow(g, alive, colors, list, v)
	}
	b.Reset(width)
	for _, w32 := range g.Neighbors(v) {
		w := int(w32)
		if !alive[w] {
			continue
		}
		if c := colors[w]; c >= 0 && c < width {
			b.Set(c)
		}
	}
	for _, c := range list {
		if !b.Test(c) {
			return c
		}
	}
	return Uncolored
}

func pickFreeAliveSlow(g *graph.Graph, alive []bool, colors []int, list []int, v int) int {
	for _, c := range list {
		ok := true
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if alive[w] && colors[w] == c {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	return Uncolored
}

// colorBallTheorem11 materializes the (fully uncolored) ball as its own
// graph, filters each vertex's list by the colors of its colored alive
// neighbors outside the ball, runs seqcolor.DegreeListColor (constructive
// Theorem 1.1) and writes the colors back. The happiness of the root
// guarantees the hypotheses: the ball has a surplus vertex or is not a
// Gallai tree.
func colorBallTheorem11(g *graph.Graph, alive []bool, colors []int, lists [][]int, ball []int) error {
	sub, orig, err := g.Induced(ball)
	if err != nil {
		return err
	}
	// Every filtered list is a slice of one backing array sized for the
	// unfiltered lists.
	total := 0
	for _, u := range orig {
		total += len(lists[u])
	}
	backing := make([]int, 0, total)
	subLists := make([][]int, sub.N())
	inBall := graph.AcquireBitset(g.N())
	for _, u := range ball {
		inBall.Set(u)
	}
	used := graph.AcquireBitset(0)
	for i, u := range orig {
		start := len(backing)
		if width := listWidth(lists[u]); width >= 0 {
			// Mark the colors of alive outside-ball neighbors once, then
			// filter the list in its own order (exact first-fit semantics).
			used.Reset(width)
			for _, w32 := range g.Neighbors(u) {
				w := int(w32)
				if !alive[w] || inBall.Test(w) {
					continue
				}
				if c := colors[w]; c >= 0 && c < width {
					used.Set(c)
				}
			}
			for _, c := range lists[u] {
				if !used.Test(c) {
					backing = append(backing, c)
				}
			}
		} else {
			for _, c := range lists[u] {
				blocked := false
				for _, w32 := range g.Neighbors(u) {
					w := int(w32)
					if alive[w] && !inBall.Test(w) && colors[w] == c {
						blocked = true
						break
					}
				}
				if !blocked {
					backing = append(backing, c)
				}
			}
		}
		subLists[i] = backing[start:len(backing):len(backing)]
	}
	graph.ReleaseBitset(used)
	graph.ReleaseBitset(inBall)
	subColors := make([]int, sub.N())
	for i := range subColors {
		subColors[i] = Uncolored
	}
	if err := seqcolor.DegreeListColor(sub, subColors, subLists); err != nil {
		return fmt.Errorf("Theorem 1.1 on the ball failed (broken happiness invariant?): %w", err)
	}
	for i, u := range orig {
		colors[u] = subColors[i]
	}
	return nil
}
