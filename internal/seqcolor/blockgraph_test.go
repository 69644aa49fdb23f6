package seqcolor

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// builderBlockGraph is the block materialization colorBadBlock used before
// blockGraph: a map from vertex to dense index and one Builder edge per
// block edge. Kept here as the reference blockGraph must match.
func builderBlockGraph(blk *graph.Block) (*graph.Graph, []int, error) {
	idx := make(map[int]int, len(blk.Vertices))
	verts := append([]int(nil), blk.Vertices...)
	sort.Ints(verts)
	for i, v := range verts {
		idx[v] = i
	}
	bld := graph.NewBuilder(len(verts))
	for _, e := range blk.Edges {
		if err := bld.AddEdge(idx[e[0]], idx[e[1]]); err != nil {
			return nil, nil, err
		}
	}
	return bld.Graph(), verts, nil
}

// TestBlockGraphMatchesBuilder checks, for every block of random graphs
// under random masks, that the induced block graph equals the one built
// from the block's own edge list: same vertex order, rows, M and maximum
// degree.
func TestBlockGraphMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	regular, err := gen.RandomRegular(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		regular,
		gen.Apollonian(200, rng),
		gen.GNP(120, 0.05, rng),
		gen.GallaiTree(12, rng),
		gen.Grid(9, 11),
		gen.WithPendantCliques(gen.Cycle(10), 3),
	}
	blocks := 0
	for gi, g := range graphs {
		for trial := 0; trial < 4; trial++ {
			var mask []bool
			if trial > 0 {
				mask = make([]bool, g.N())
				for v := range mask {
					mask[v] = rng.IntN(5) > 0
				}
			}
			dec := g.Blocks(mask)
			for bi := range dec.Blocks {
				blk := &dec.Blocks[bi]
				got, gotVerts, err := blockGraph(g, blk)
				if err != nil {
					t.Fatal(err)
				}
				want, wantVerts, err := builderBlockGraph(blk)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotVerts, wantVerts) {
					t.Fatalf("graph %d block %d: vertices %v, want %v", gi, bi, gotVerts, wantVerts)
				}
				if got.N() != want.N() || got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
					t.Fatalf("graph %d block %d: n/m/Δ %d/%d/%d, want %d/%d/%d", gi, bi,
						got.N(), got.M(), got.MaxDegree(), want.N(), want.M(), want.MaxDegree())
				}
				for v := 0; v < got.N(); v++ {
					if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
						t.Fatalf("graph %d block %d: row %d = %v, want %v", gi, bi, v, got.Neighbors(v), want.Neighbors(v))
					}
				}
				blocks++
			}
		}
	}
	if blocks < 100 {
		t.Fatalf("only %d blocks compared", blocks)
	}
}
