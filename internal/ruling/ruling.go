// Package ruling implements (α, β)-ruling sets and ruling forests in the
// sense of Awerbuch, Goldberg, Luby and Plotkin (FOCS 1989), as used by
// Lemma 3.2 of the paper: given a subset U of vertices, a family of
// vertex-disjoint rooted trees such that every vertex of U lies in a tree,
// roots are pairwise at distance ≥ α, and tree depth is ≤ β = O(α log n).
//
// The ruling set is computed by the classic bit-by-bit merge: maintain a
// candidate set (initially U); at bit level i, candidates whose IDs agree
// above bit i are merged — candidates with bit i = 1 survive only if no
// same-group candidate with bit i = 0 lies within distance < α. Each level
// costs α LOCAL rounds (a distance-α BFS); there are ⌈log₂(n+1)⌉ levels.
// The forest is then the multi-source BFS forest of the rulers, trimmed to
// the union of root paths of U-vertices; its construction costs depth
// rounds. All charges are recorded on the ledger.
//
// The merge walks an ID-sorted list of the surviving candidates, so a
// level's groups are contiguous runs of it and each level costs
// O(|candidates|), not O(n); the ID inverse and the per-vertex marks live
// in a Workspace that serves every call on one network. A call therefore
// costs what U, the components holding U and the forest cost — the
// geometrically shrinking layers of Lemma 3.2 stay cheap on large graphs.
package ruling

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// Forest is an (α, β)-ruling forest.
type Forest struct {
	Alpha int
	// Roots lists the ruling set (subset of U), ascending vertex order.
	Roots []int
	// Tree lists every vertex of the forest, ascending.
	Tree []int
	// Parent[i] is Tree[i]'s tree parent (-1 for roots).
	Parent []int
	// Depth[i] is Tree[i]'s distance to its root inside the tree.
	Depth []int
	// MaxDepth is the deepest tree node.
	MaxDepth int
}

// Workspace holds the per-vertex state of Compute for one network: the
// ID→vertex inverse, built and validated once, and generation-stamped
// vertex labels that each call touches only where it works. A Workspace is
// owned by one goroutine at a time.
type Workspace struct {
	nw   *local.Network
	byID []int32 // byID[id] is the vertex holding ID id (index 0 unused)
	// mark[v] ≥ base holds exactly for the vertices marked since the last
	// begin, and mark[v] − base is the label v was marked with.
	mark      []uint32
	base, top uint32
}

// NewWorkspace validates that the network's IDs are a permutation of 1..n
// (the merge runs bits.Len(n) levels, which separates only IDs in 1..n)
// and builds their inverse.
func NewWorkspace(nw *local.Network) (*Workspace, error) {
	n := nw.G.N()
	if len(nw.ID) != n {
		return nil, fmt.Errorf("ruling: %d IDs for %d vertices", len(nw.ID), n)
	}
	byID := make([]int32, n+1)
	for i := range byID {
		byID[i] = -1
	}
	for v, id := range nw.ID {
		if id < 1 || id > n {
			return nil, fmt.Errorf("ruling: vertex %d has ID %d outside 1..%d", v, id, n)
		}
		if byID[id] != -1 {
			return nil, fmt.Errorf("ruling: ID %d held by vertices %d and %d", id, byID[id], v)
		}
		byID[id] = int32(v)
	}
	return &Workspace{nw: nw, byID: byID, mark: make([]uint32, n)}, nil
}

// begin unmarks every vertex and makes room for labels 0..k−1.
func (ws *Workspace) begin(k int) {
	if uint64(ws.top)+uint64(k) > math.MaxUint32 { // wrap: clear once every ~2³² labels
		clear(ws.mark)
		ws.top = 0
	}
	ws.base = ws.top + 1
	ws.top += uint32(k)
}

func (ws *Workspace) marked(v int) bool { return ws.mark[v] >= ws.base }

func (ws *Workspace) setMark(v, label int) { ws.mark[v] = ws.base + uint32(label) }

// Compute builds an (α, O(α log n))-ruling forest of the masked graph with
// respect to U, on a fresh Workspace. IDs come from the network (nw.ID)
// and must be a permutation of 1..n, or Compute returns an error. Callers
// that build several forests on one network should hold a Workspace.
func Compute(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) (*Forest, error) {
	ws, err := NewWorkspace(nw)
	if err != nil {
		return nil, err
	}
	return ws.Compute(ctx, ledger, phase, mask, u, alpha)
}

// Compute builds an (α, O(α log n))-ruling forest of the masked graph with
// respect to U. mask restricts the graph (nil = all vertices); every
// u ∈ U must satisfy the mask. Rounds are charged to the ledger under the
// given phase. Cancellation is cooperative: ctx is checked once per bit
// level (each level costs α LOCAL rounds).
func (ws *Workspace) Compute(ctx context.Context, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) (*Forest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := ws.nw.G
	n := g.N()
	if alpha < 1 {
		return nil, fmt.Errorf("ruling: alpha must be ≥ 1, got %d", alpha)
	}
	for _, v := range u {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("ruling: U vertex %d out of range", v)
		}
		if mask != nil && !mask[v] {
			return nil, fmt.Errorf("ruling: U vertex %d outside mask", v)
		}
	}
	tr := g.AcquireTraversal()
	defer g.ReleaseTraversal(tr)

	// --- Phase 1: ruling set by bit-level merges over cand, the distinct
	// members of U as ascending keys ID<<32 | vertex, so the group of
	// prefix p at bit level i is a contiguous run of cand with its bit-0
	// members first.
	cand := ws.sortByID(u)

	// Saturation fast path: the merge asks "is some same-group bit-0
	// candidate within distance < α?". When α−1 is at least the diameter of
	// the candidate's component, the answer is simply "does its component
	// hold such a candidate" — an O(1) lookup. With the paper's
	// α = 2·⌈c·log n⌉+2 this covers almost every query (component diameters
	// are far below c·log n on the workloads); only components with
	// diameter upper bound > α−1 fall back to a genuine bounded BFS. Only
	// the components holding a candidate are labeled; comp runs parallel
	// to cand.
	ws.begin(len(cand))
	comp := make([]int32, len(cand))
	var compDiamUB []int // 2·ecc(first vertex): an upper bound on diameter
	for i, key := range cand {
		v := vertex(key)
		if !ws.marked(v) {
			tr.Run([]int{v}, mask, -1)
			for _, w := range tr.Order() {
				ws.setMark(int(w), len(compDiamUB))
			}
			compDiamUB = append(compDiamUB, 2*tr.MaxDist())
		}
		comp[i] = int32(ws.mark[v] - ws.base)
	}

	levels := bits.Len(uint(n)) // IDs are 1..n
	// zeroStamp[c] == group marks component c as holding a bit-0 member of
	// the current group; group numbers grow across levels, so no clearing.
	zeroStamp := make([]int, len(compDiamUB))
	group := 0
	var slowZeros []int
	for bit := 0; bit < levels; bit++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Walk the groups (runs of equal ID>>(bit+1)), compacting the
		// survivors in place: bit-0 members always survive a level, bit-1
		// members within distance < α of one are dropped.
		keep := 0
		shift := 32 + bit
		for lo := 0; lo < len(cand); {
			prefix := cand[lo] >> (shift + 1)
			mid, hi := lo, lo
			for hi < len(cand) && cand[hi]>>(shift+1) == prefix {
				if (cand[hi]>>shift)&1 == 0 {
					mid = hi + 1
				}
				hi++
			}
			if mid == lo || mid == hi { // one side empty: nothing merges
				keep += copy(cand[keep:], cand[lo:hi])
				copy(comp[keep-(hi-lo):], comp[lo:hi])
				lo = hi
				continue
			}
			group++
			slowZeros = slowZeros[:0]
			for i := lo; i < mid; i++ {
				c := comp[i]
				zeroStamp[c] = group
				if compDiamUB[c] > alpha-1 {
					slowZeros = append(slowZeros, vertex(cand[i]))
				}
			}
			if len(slowZeros) > 0 {
				tr.Run(slowZeros, mask, alpha-1)
			}
			keep += copy(cand[keep:], cand[lo:mid])
			copy(comp[keep-(mid-lo):], comp[lo:mid])
			for i := mid; i < hi; i++ {
				key, c := cand[i], comp[i]
				if zeroStamp[c] == group && compDiamUB[c] <= alpha-1 {
					continue
				}
				if len(slowZeros) > 0 && tr.Reached(vertex(key)) {
					continue
				}
				cand[keep], comp[keep] = key, c
				keep++
			}
			lo = hi
		}
		cand, comp = cand[:keep], comp[:keep]
		if ledger != nil {
			ledger.Charge(phase, alpha)
		}
	}

	f := &Forest{Alpha: alpha, Roots: make([]int, len(cand))}
	for i, key := range cand {
		f.Roots[i] = vertex(key)
	}
	slices.Sort(f.Roots)

	// --- Phase 2: BFS forest from the rulers, trimmed to U's root paths.
	tr.Run(f.Roots, mask, -1)
	for _, v := range u {
		if !tr.Reached(v) {
			return nil, fmt.Errorf("ruling: U vertex %d unreachable from rulers", v)
		}
	}
	ws.begin(1)
	tree := make([]int, 0, len(u)) // T ⊇ U: exact when the paths add nothing
	for _, v := range u {
		for x := v; x != -1 && !ws.marked(x); x = tr.Parent(x) {
			ws.setMark(x, 0)
			tree = append(tree, x)
		}
	}
	f.Tree = ws.ascending(tree)
	f.Parent = make([]int, len(f.Tree))
	f.Depth = make([]int, len(f.Tree))
	for i, v := range f.Tree {
		f.Parent[i] = tr.Parent(v)
		f.Depth[i] = tr.Dist(v)
		f.MaxDepth = max(f.MaxDepth, f.Depth[i])
	}
	if ledger != nil {
		ledger.Charge(phase, f.MaxDepth+1)
	}
	return f, nil
}

// sortByID returns the distinct vertices of u as ascending keys
// ID<<32 | vertex. A large u is read off the ID inverse in one O(n) sweep;
// a small one is sorted in O(|u| log |u|).
func (ws *Workspace) sortByID(u []int) []uint64 {
	n := len(ws.mark)
	if dense(len(u), n) {
		ws.begin(1)
		for _, v := range u {
			ws.setMark(v, 0)
		}
		keys := make([]uint64, 0, len(u))
		for id, v := range ws.byID[1:] {
			if ws.marked(int(v)) {
				keys = append(keys, uint64(id+1)<<32|uint64(v))
			}
		}
		return keys
	}
	keys := make([]uint64, len(u))
	for i, v := range u {
		keys[i] = uint64(ws.nw.ID[v])<<32 | uint64(v)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// vertex extracts the vertex of an ID<<32 | vertex key.
func vertex(key uint64) int { return int(uint32(key)) }

// ascending sorts the vertex list s, whose members are exactly the
// vertices marked since the last begin: a large s by sweeping the marks in
// vertex order, a small one by sorting.
func (ws *Workspace) ascending(s []int) []int {
	n := len(ws.mark)
	if !dense(len(s), n) {
		slices.Sort(s)
		return s
	}
	s = s[:0]
	for v := 0; v < n; v++ {
		if ws.marked(v) {
			s = append(s, v)
		}
	}
	return s
}

// dense reports whether an O(n) sweep is cheaper than sorting k of n
// vertices.
func dense(k, n int) bool { return k*bits.Len(uint(k)) >= n }

// IndependentRulingSet computes a (2, O(log n))-ruling set of the masked
// graph with respect to U: an independent subset of U such that every
// vertex of U is within O(log n) hops of a member. With U = V this is a
// maximal-independent-set-grade symmetry-breaking primitive, obtained here
// deterministically from the same AGLP machinery (α = 2 makes "distance
// ≥ α" mean exactly "non-adjacent").
func IndependentRulingSet(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int) ([]int, error) {
	f, err := Compute(ctx, nw, ledger, phase, mask, u, 2)
	if err != nil {
		return nil, err
	}
	return f.Roots, nil
}

// VerifyInvariants checks the (α, β) ruling-forest properties against the
// masked graph: roots are tree vertices at depth 0, pairwise root distance
// ≥ α, U coverage, parent adjacency, acyclicity and the depth bound β.
// Used by tests and the experiment harness.
func (f *Forest) VerifyInvariants(g *graph.Graph, mask []bool, u []int, beta int) error {
	// roots pairwise ≥ alpha apart
	for _, r := range f.Roots {
		res := g.BFS([]int{r}, mask, f.Alpha-1)
		for _, r2 := range f.Roots {
			if r2 != r && res.Dist[r2] >= 0 {
				return fmt.Errorf("ruling: roots %d,%d at distance %d < α=%d", r, r2, res.Dist[r2], f.Alpha)
			}
		}
	}
	if len(f.Parent) != len(f.Tree) || len(f.Depth) != len(f.Tree) {
		return fmt.Errorf("ruling: %d tree vertices, %d parents, %d depths", len(f.Tree), len(f.Parent), len(f.Depth))
	}
	pos := make(map[int]int, len(f.Tree))
	for i, v := range f.Tree {
		if i > 0 && f.Tree[i-1] >= v {
			return fmt.Errorf("ruling: tree vertices not ascending at %d", v)
		}
		pos[v] = i
	}
	// U covered
	for _, v := range u {
		if _, ok := pos[v]; !ok {
			return fmt.Errorf("ruling: U vertex %d not in any tree", v)
		}
	}
	roots := 0
	for i, v := range f.Tree {
		if mask != nil && !mask[v] {
			return fmt.Errorf("ruling: tree vertex %d outside mask", v)
		}
		p := f.Parent[i]
		if p == -1 {
			if f.Depth[i] != 0 {
				return fmt.Errorf("ruling: root %d with depth %d", v, f.Depth[i])
			}
			if _, ok := slices.BinarySearch(f.Roots, v); !ok {
				return fmt.Errorf("ruling: parentless vertex %d is not a root", v)
			}
			roots++
			continue
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("ruling: parent %d of %d not adjacent", p, v)
		}
		j, ok := pos[p]
		if !ok {
			return fmt.Errorf("ruling: parent %d of %d outside forest", p, v)
		}
		if f.Depth[i] != f.Depth[j]+1 {
			return fmt.Errorf("ruling: depth mismatch at %d", v)
		}
		if f.Depth[i] > beta {
			return fmt.Errorf("ruling: depth %d exceeds β=%d", f.Depth[i], beta)
		}
	}
	if roots != len(f.Roots) {
		return fmt.Errorf("ruling: %d parentless tree vertices, %d roots", roots, len(f.Roots))
	}
	return nil
}
