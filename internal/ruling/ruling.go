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
package ruling

import (
	"context"
	"fmt"
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
	// Parent[v] is v's tree parent (-1 for roots and vertices outside the
	// forest).
	Parent []int
	// Depth[v] is v's distance to its root inside the tree (-1 outside).
	Depth []int
	// InTree[v] reports membership in some tree.
	InTree []bool
	// MaxDepth is the deepest tree node.
	MaxDepth int
}

// Compute builds an (α, O(α log n))-ruling forest of the masked graph with
// respect to U. IDs come from the network (nw.ID) and must be a permutation
// of 1..n, or Compute returns an error; mask restricts the graph
// (nil = all vertices); every u ∈ U must satisfy the mask. Rounds are
// charged to the ledger under the given phase. Cancellation is cooperative:
// ctx is checked once per bit level (each level costs α LOCAL rounds).
func Compute(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	mask []bool, u []int, alpha int) (*Forest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := nw.G
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
	// byID inverts the ID assignment, so a level's groups are contiguous
	// runs of IDs: the group of prefix p at bit level i holds IDs
	// [p·2^(i+1), (p+1)·2^(i+1)), its bit-0 members in the lower half.
	// The merge separates only IDs in 1..n (it runs bits.Len(n) levels),
	// so anything but a permutation of 1..n is rejected.
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

	// --- Phase 1: ruling set by bit-level merges. One pooled traversal
	// serves every group BFS: levels × groups bounded searches with zero
	// per-search allocation.
	tr := g.AcquireTraversal()
	defer g.ReleaseTraversal(tr)

	// Saturation fast path: the merge asks "is some same-group bit-0
	// candidate within distance < α?". When α−1 is at least the diameter of
	// the candidate's component, the answer is simply "does its component
	// hold such a candidate" — an O(1) lookup. With the paper's
	// α = 2·⌈c·log n⌉+2 this covers almost every query (component diameters
	// are far below c·log n on the workloads); only components with
	// diameter upper bound > α−1 fall back to a genuine bounded BFS.
	compID := make([]int, n)
	for i := range compID {
		compID[i] = -1
	}
	var compDiamUB []int // 2·ecc(first vertex): an upper bound on diameter
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
	levels := bits.Len(uint(n)) // IDs are 1..n
	// zeroStamp[c] == group marks component c as holding a bit-0 member of
	// the current group; group numbers grow across levels, so no clearing.
	zeroStamp := make([]int, len(compDiamUB))
	group := 0
	var zeros, slowZeros []int
	for bit := 0; bit < levels; bit++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		half := 1 << bit
		for lo := 0; lo <= n; lo += 2 * half {
			mid, hi := min(lo+half, n+1), min(lo+2*half, n+1)
			group++
			zeros = zeros[:0]
			for _, v := range byID[max(lo, 1):mid] { // ID 0 is unused
				if isRuler[v] {
					zeros = append(zeros, int(v))
					zeroStamp[compID[v]] = group
				}
			}
			if len(zeros) == 0 || !slices.ContainsFunc(byID[mid:hi], func(v int32) bool { return isRuler[v] }) {
				continue
			}
			// Drop bit-1 members within distance < alpha of a bit-0 member:
			// saturated components by component identity, the rest by BFS.
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
		if ledger != nil {
			ledger.Charge(phase, alpha)
		}
	}

	f := &Forest{
		Alpha:  alpha,
		Parent: make([]int, n),
		Depth:  make([]int, n),
		InTree: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		f.Parent[v] = -1
		f.Depth[v] = -1
	}
	var roots []int
	for v := 0; v < n; v++ {
		if isRuler[v] {
			roots = append(roots, v)
		}
	}
	f.Roots = roots

	// --- Phase 2: BFS forest from the rulers, trimmed to U's root paths.
	tr.Run(roots, mask, -1)
	for _, v := range u {
		if !tr.Reached(v) {
			return nil, fmt.Errorf("ruling: U vertex %d unreachable from rulers", v)
		}
	}
	keep := make([]bool, n)
	for _, v := range u {
		x := v
		for x != -1 && !keep[x] {
			keep[x] = true
			x = tr.Parent(x)
		}
	}
	maxDepth := 0
	for v := 0; v < n; v++ {
		if !keep[v] {
			continue
		}
		f.InTree[v] = true
		f.Parent[v] = tr.Parent(v)
		f.Depth[v] = tr.Dist(v)
		if f.Depth[v] > maxDepth {
			maxDepth = f.Depth[v]
		}
	}
	f.MaxDepth = maxDepth
	if ledger != nil {
		ledger.Charge(phase, maxDepth+1)
	}
	return f, nil
}

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

// TreeVertices returns all vertices in the forest, ascending.
func (f *Forest) TreeVertices() []int {
	k := 0
	for _, ok := range f.InTree {
		if ok {
			k++
		}
	}
	out := make([]int, 0, k)
	for v, ok := range f.InTree {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// VerifyInvariants checks the (α, β) ruling-forest properties against the
// masked graph: roots ⊆ U... (roots are rulers chosen from U), pairwise root
// distance ≥ α, U coverage, parent adjacency, acyclicity and the depth
// bound β. Used by tests and the experiment harness.
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
	// U covered
	for _, v := range u {
		if !f.InTree[v] {
			return fmt.Errorf("ruling: U vertex %d not in any tree", v)
		}
	}
	// structure
	for v := range f.InTree {
		if !f.InTree[v] {
			if f.Parent[v] != -1 || f.Depth[v] != -1 {
				return fmt.Errorf("ruling: non-tree vertex %d has tree fields", v)
			}
			continue
		}
		if mask != nil && !mask[v] {
			return fmt.Errorf("ruling: tree vertex %d outside mask", v)
		}
		p := f.Parent[v]
		if p == -1 {
			if f.Depth[v] != 0 {
				return fmt.Errorf("ruling: root %d with depth %d", v, f.Depth[v])
			}
			continue
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("ruling: parent %d of %d not adjacent", p, v)
		}
		if !f.InTree[p] {
			return fmt.Errorf("ruling: parent %d of %d outside forest", p, v)
		}
		if f.Depth[v] != f.Depth[p]+1 {
			return fmt.Errorf("ruling: depth mismatch at %d", v)
		}
		if f.Depth[v] > beta {
			return fmt.Errorf("ruling: depth %d exceeds β=%d", f.Depth[v], beta)
		}
	}
	return nil
}
