package ruling

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

func allVertices(g *graph.Graph) []int {
	u := make([]int, g.N())
	for i := range u {
		u[i] = i
	}
	return u
}

func TestRulingForestPath(t *testing.T) {
	g := gen.Path(50)
	nw := local.NewNetwork(g)
	var ledger local.Ledger
	f, err := Compute(context.Background(), nw, &ledger, "ruling", nil, allVertices(g), 5)
	if err != nil {
		t.Fatal(err)
	}
	beta := 5 * (bits.Len(uint(g.N())) + 1)
	if err := f.VerifyInvariants(g, nil, allVertices(g), beta); err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) == 0 {
		t.Fatal("no roots")
	}
	if ledger.Rounds() == 0 {
		t.Error("no rounds charged")
	}
}

func TestRulingForestSubsetU(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := gen.Grid(12, 12)
	nw := local.NewShuffledNetwork(g, rng)
	var u []int
	for v := 0; v < g.N(); v++ {
		if rng.Float64() < 0.3 {
			u = append(u, v)
		}
	}
	alpha := 4
	f, err := Compute(context.Background(), nw, nil, "", nil, u, alpha)
	if err != nil {
		t.Fatal(err)
	}
	beta := alpha * (bits.Len(uint(g.N())) + 1)
	if err := f.VerifyInvariants(g, nil, u, beta); err != nil {
		t.Fatal(err)
	}
	// every root must be in U
	inU := map[int]bool{}
	for _, v := range u {
		inU[v] = true
	}
	for _, r := range f.Roots {
		if !inU[r] {
			t.Errorf("root %d not in U", r)
		}
	}
}

func TestRulingForestWithMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := gen.GNP(60, 0.06, rng)
	nw := local.NewShuffledNetwork(g, rng)
	mask := make([]bool, g.N())
	var u []int
	for v := 0; v < g.N(); v++ {
		mask[v] = rng.Float64() < 0.8
		if mask[v] && rng.Float64() < 0.5 {
			u = append(u, v)
		}
	}
	f, err := Compute(context.Background(), nw, nil, "", mask, u, 3)
	if err != nil {
		t.Fatal(err)
	}
	beta := 3 * (bits.Len(uint(g.N())) + 1)
	if err := f.VerifyInvariants(g, mask, u, beta); err != nil {
		t.Fatal(err)
	}
}

func TestRulingForestRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.IntN(60)
		g := gen.GNP(n, 2.0/float64(n), rng)
		nw := local.NewShuffledNetwork(g, rng)
		var u []int
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.4 {
				u = append(u, v)
			}
		}
		if len(u) == 0 {
			continue
		}
		alpha := 2 + rng.IntN(4)
		f, err := Compute(context.Background(), nw, nil, "", nil, u, alpha)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		beta := alpha * (bits.Len(uint(n)) + 1)
		if err := f.VerifyInvariants(g, nil, u, beta); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// trees vertex-disjoint is implied by single Parent pointer; check
		// root-per-tree consistency: walking parents terminates at a root.
		parent := expand(f, n).Parent
		for _, v := range f.Tree {
			x, steps := v, 0
			for parent[x] != -1 {
				x = parent[x]
				steps++
				if steps > n {
					t.Fatalf("trial %d: parent cycle at %d", trial, v)
				}
			}
			isRoot := false
			for _, r := range f.Roots {
				if r == x {
					isRoot = true
				}
			}
			if !isRoot {
				t.Fatalf("trial %d: chain from %d ends at non-root %d", trial, v, x)
			}
		}
	}
}

func TestRulingForestSingleton(t *testing.T) {
	g := gen.Cycle(10)
	nw := local.NewNetwork(g)
	f, err := Compute(context.Background(), nw, nil, "", nil, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 || f.Roots[0] != 3 {
		t.Errorf("roots=%v, want [3]", f.Roots)
	}
	if len(f.Tree) != 1 {
		t.Errorf("singleton tree should have exactly the root")
	}
}

func TestRulingForestEmptyU(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	f, err := Compute(context.Background(), nw, nil, "", nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 0 || len(f.Tree) != 0 {
		t.Error("empty U should give empty forest")
	}
}

func TestRulingForestBadInput(t *testing.T) {
	g := gen.Cycle(6)
	nw := local.NewNetwork(g)
	if _, err := Compute(context.Background(), nw, nil, "", nil, []int{0}, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Compute(context.Background(), nw, nil, "", nil, []int{99}, 2); err == nil {
		t.Error("out-of-range U accepted")
	}
	mask := make([]bool, 6)
	if _, err := Compute(context.Background(), nw, nil, "", mask, []int{0}, 2); err == nil {
		t.Error("U outside mask accepted")
	}
}

func TestIndependentRulingSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.IntN(70)
		g := gen.GNP(n, 3.0/float64(n), rng)
		nw := local.NewShuffledNetwork(g, rng)
		u := allVertices(g)
		set, err := IndependentRulingSet(context.Background(), nw, nil, "", nil, u)
		if err != nil {
			t.Fatal(err)
		}
		inSet := make([]bool, n)
		for _, v := range set {
			inSet[v] = true
		}
		// independence
		for _, v := range set {
			for _, w := range g.Neighbors(v) {
				if inSet[w] {
					t.Fatalf("trial %d: adjacent pair %d,%d in ruling set", trial, v, int(w))
				}
			}
		}
		// domination within O(log n) in each component containing a U vertex
		beta := 2 * (bits.Len(uint(n)) + 1)
		res := g.BFS(set, nil, beta)
		for v := 0; v < n; v++ {
			if res.Dist[v] == -1 {
				// must be in a component with no ruler — impossible since
				// U = V covers every component
				t.Fatalf("trial %d: vertex %d undominated within %d", trial, v, beta)
			}
		}
	}
}

func TestRulingSetMaximality(t *testing.T) {
	// With alpha=1 nothing is ever dropped: every U vertex is a root.
	g := gen.Grid(5, 5)
	nw := local.NewNetwork(g)
	u := allVertices(g)
	f, err := Compute(context.Background(), nw, nil, "", nil, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != len(u) {
		t.Errorf("alpha=1: %d roots, want %d", len(f.Roots), len(u))
	}
}
