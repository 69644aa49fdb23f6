package graph

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// referenceBlocks is Blocks as it was before the decomposition was copied
// out of a cached workspace: a fresh Hopcroft–Tarjan DFS, one Edges and
// one Vertices slice per block, and BlocksOf grown by append, one slice per
// vertex. Blocks must reproduce it exactly.
func referenceBlocks(g *Graph, mask []bool) *BlockDecomposition {
	n := g.N()
	dec := &BlockDecomposition{IsCut: make([]bool, n), BlocksOf: make([][]int, n)}
	num, low, parent, iter := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	seenIn := make([]int, n)
	stamp := 0
	var estack [][2]int
	inMask := func(v int) bool { return mask == nil || mask[v] }
	popBlock := func(u, v int) {
		var edges [][2]int
		var verts []int
		stamp++
		add := func(w int) {
			if seenIn[w] != stamp {
				seenIn[w] = stamp
				verts = append(verts, w)
			}
		}
		for len(estack) > 0 {
			e := estack[len(estack)-1]
			estack = estack[:len(estack)-1]
			edges = append(edges, e)
			add(e[0])
			add(e[1])
			if e[0] == u && e[1] == v {
				break
			}
		}
		idx := len(dec.Blocks)
		dec.Blocks = append(dec.Blocks, Block{Edges: edges, Vertices: verts})
		for _, w := range verts {
			dec.BlocksOf[w] = append(dec.BlocksOf[w], idx)
		}
	}
	counter := 0
	for root := 0; root < n; root++ {
		if num[root] != 0 || !inMask(root) {
			continue
		}
		counter++
		num[root], low[root], parent[root], iter[root] = counter, counter, -1, 0
		stack := []int{root}
		rootChildren := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			advanced := false
			nbrs := g.Neighbors(v)
			for iter[v] < len(nbrs) {
				w := int(nbrs[iter[v]])
				iter[v]++
				if !inMask(w) {
					continue
				}
				if num[w] == 0 {
					estack = append(estack, [2]int{v, w})
					parent[w] = v
					counter++
					num[w], low[w], iter[w] = counter, counter, 0
					stack = append(stack, w)
					if v == root {
						rootChildren++
					}
					advanced = true
					break
				}
				if w != parent[v] && num[w] < num[v] {
					estack = append(estack, [2]int{v, w})
					low[v] = min(low[v], num[w])
				}
			}
			if advanced {
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				low[p] = min(low[p], low[v])
				if low[v] >= num[p] {
					if p != root || rootChildren >= 1 {
						popBlock(p, v)
					}
					if p != root {
						dec.IsCut[p] = true
					}
				}
			}
		}
		if rootChildren >= 2 {
			dec.IsCut[root] = true
		}
	}
	return dec
}

// TestBlocksMatchesReference compares Blocks with referenceBlocks on
// random graphs and masks: the same blocks (edges and vertices in the same
// order), cut vertices and BlocksOf lists.
func TestBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(80)
		g := randomGraph(rng, n, rng.Float64()*0.15)
		var mask []bool
		if trial%2 == 1 {
			mask = make([]bool, n)
			for v := range mask {
				mask[v] = rng.IntN(4) > 0
			}
		}
		got, want := g.Blocks(mask), referenceBlocks(g, mask)
		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("trial %d: %d blocks, want %d", trial, len(got.Blocks), len(want.Blocks))
		}
		for i := range want.Blocks {
			if !reflect.DeepEqual(got.Blocks[i], want.Blocks[i]) {
				t.Fatalf("trial %d: block %d = %v, want %v", trial, i, got.Blocks[i], want.Blocks[i])
			}
		}
		if !reflect.DeepEqual(got.IsCut, want.IsCut) {
			t.Fatalf("trial %d: IsCut differs", trial)
		}
		if !reflect.DeepEqual(got.BlocksOf, want.BlocksOf) {
			t.Fatalf("trial %d: BlocksOf = %v, want %v", trial, got.BlocksOf, want.BlocksOf)
		}
	}
}

// TestBlocksAllocsIndependentOfN guards the one-backing-array layout: on a
// 10k-vertex graph, Blocks allocates a fixed handful of times (the
// decomposition and its shared arrays), not once per vertex or block.
func TestBlocksAllocsIndependentOfN(t *testing.T) {
	g := benchGraph(10000)
	blocks := len(g.Blocks(nil).Blocks)
	allocs := testing.AllocsPerRun(5, func() { g.Blocks(nil) })
	if allocs > 8 {
		t.Fatalf("Blocks on n=%d (%d blocks) made %.0f allocations, want ≤ 8", g.N(), blocks, allocs)
	}
}

// TestIsGallaiForestAllocatesNothing checks the doc comment's promise: once
// the cached DFS workspace has grown to the graph, a further call
// allocates nothing, with or without a mask.
func TestIsGallaiForestAllocatesNothing(t *testing.T) {
	g := benchGraph(10000)
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = v%3 != 0
	}
	g.IsGallaiForest(nil)
	if allocs := testing.AllocsPerRun(5, func() { g.IsGallaiForest(nil) }); allocs != 0 {
		t.Fatalf("IsGallaiForest(nil) made %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { g.IsGallaiForest(mask) }); allocs != 0 {
		t.Fatalf("IsGallaiForest(mask) made %.0f allocations, want 0", allocs)
	}
}
