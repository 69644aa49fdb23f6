package graph

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestScratchCacheKeepsAcrossGC checks the cache's retention policy:
// small workspaces outlive garbage collection, at most keptScratch of
// them are kept, and larger ones are never kept.
func TestScratchCacheKeepsAcrossGC(t *testing.T) {
	var c scratchCache[int]
	small := new(int)
	c.put(small, keptScratchVertices)
	runtime.GC()
	runtime.GC()
	if got := c.get(); got != small {
		t.Fatalf("kept workspace lost across GC: got %p, want %p", got, small)
	}
	c.put(new(int), keptScratchVertices+1)
	if len(c.kept) != 0 {
		t.Fatalf("workspace over %d vertices kept", keptScratchVertices)
	}
	for i := 0; i < keptScratch+2; i++ {
		c.put(new(int), 1)
	}
	if len(c.kept) != keptScratch {
		t.Fatalf("%d workspaces kept, want %d", len(c.kept), keptScratch)
	}
}

// TestSharedWorkspacesConcurrent runs the cached-workspace users (BFS,
// balls, components, blocks, Gallai recognition, induced subgraphs) from
// several goroutines at once on graphs of different sizes, so workspaces
// pass between graphs and goroutines, and compares every result with a
// sequential run. Run it under -race.
func TestSharedWorkspacesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	type result struct {
		ball   []int
		comps  [][]int
		blocks *BlockDecomposition
		gallai bool
		sub    []int32
	}
	run := func(g *Graph) result {
		sub, _, err := g.Induced([]int{g.N() - 1, 0, g.N() / 2})
		if err != nil {
			panic(err)
		}
		var row []int32
		for v := 0; v < sub.N(); v++ {
			row = append(row, sub.Neighbors(v)...)
		}
		return result{g.Ball(0, 3, nil), g.Components(nil), g.Blocks(nil), g.IsGallaiForest(nil), row}
	}
	var graphs []*Graph
	var want []result
	for i := 0; i < 6; i++ {
		g := randomGraph(rng, 20+rng.IntN(400), 0.01+0.02*rng.Float64())
		graphs = append(graphs, g)
		want = append(want, run(g))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				i := (w + k) % len(graphs)
				if got := run(graphs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, graph %d: concurrent result differs from sequential", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
