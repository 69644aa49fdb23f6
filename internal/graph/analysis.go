package graph

// Girth returns the length of a shortest cycle in the masked graph, or -1
// if the graph is a forest. Runs a BFS from every vertex: O(n·m). When a BFS
// from v finds an edge between two vertices x,y with dist(x)+dist(y)+1 < best
// it updates the bound; this yields the exact girth (the standard argument:
// a shortest cycle through its own vertex is detected exactly).
func (g *Graph) Girth(mask []bool) int {
	best := -1
	n := g.N()
	dist := make([]int, n)
	par := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if mask != nil && !mask[s] {
			continue
		}
		for i := range dist {
			dist[i] = -1
			par[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best != -1 && 2*dist[v] >= best {
				break
			}
			for _, w32 := range g.Neighbors(v) {
				w := int(w32)
				if mask != nil && !mask[w] {
					continue
				}
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					par[w] = v
					queue = append(queue, w)
				} else if w != par[v] && par[w] != v {
					// Non-tree edge: cycle through s of length ≤ d(v)+d(w)+1.
					c := dist[v] + dist[w] + 1
					if best == -1 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// DegeneracyResult describes a degeneracy (smallest-last) ordering.
type DegeneracyResult struct {
	// Degeneracy is the maximum, over the elimination order, of the degree
	// of the removed vertex at removal time.
	Degeneracy int
	// Order is the elimination order (a vertex's "later" neighbors are the
	// ones appearing after it).
	Order []int
	// Pos[v] is v's index in Order (-1 for masked-out vertices).
	Pos []int
}

// Degeneracy computes the degeneracy and a smallest-last order of the masked
// graph using the standard bucket algorithm in O(n + m).
func (g *Graph) Degeneracy(mask []bool) DegeneracyResult {
	n := g.N()
	deg := make([]int, n)
	alive := make([]bool, n)
	total := 0
	maxDeg := 0
	effMask := aliveOrMask(mask, n)
	for v := 0; v < n; v++ {
		if !effMask[v] {
			continue
		}
		alive[v] = true
		total++
		deg[v] = g.DegreeInMask(v, effMask)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		if alive[v] {
			buckets[deg[v]] = append(buckets[deg[v]], v)
		}
	}
	res := DegeneracyResult{
		Order: make([]int, 0, total),
		Pos:   make([]int, n),
	}
	for i := range res.Pos {
		res.Pos[i] = -1
	}
	removed := make([]bool, n)
	for len(res.Order) < total {
		// find the lowest nonempty bucket with a still-valid entry
		found := -1
		for d := 0; d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				v := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if removed[v] || deg[v] != d {
					continue
				}
				found = v
				break
			}
			if found != -1 {
				break
			}
		}
		if found == -1 {
			break // should not happen
		}
		v := found
		removed[v] = true
		if deg[v] > res.Degeneracy {
			res.Degeneracy = deg[v]
		}
		res.Pos[v] = len(res.Order)
		res.Order = append(res.Order, v)
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if !alive[w] || removed[w] {
				continue
			}
			deg[w]--
			buckets[deg[w]] = append(buckets[deg[w]], w)
		}
	}
	return res
}

// DegeneracyOrder returns the degeneracy result for the whole graph
// (mask == nil), computed once and cached — Graph is immutable, so repeated
// callers (clique search, low-degree peeling, baselines) share one
// computation.
func (g *Graph) DegeneracyOrder() DegeneracyResult {
	g.degenOnce.Do(func() { g.degen = g.Degeneracy(nil) })
	return g.degen
}

func aliveOrMask(mask []bool, n int) []bool {
	if mask != nil {
		return mask
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	return all
}

// FindCliqueDPlus1 searches for a clique on d+1 vertices. In a graph of
// degeneracy ≤ d, any K_{d+1} appears as the earliest-eliminated member v of
// the clique together with exactly its d "later" neighbors; so checking, for
// each v in a degeneracy order, whether v's later neighborhood has size ≥ d
// and contains a d-subset that is a clique with v finds it. To stay
// polynomial we only test the case |later(v)| == d exactly when degeneracy
// ≤ d (the paper's setting: mad(G) ≤ d ⇒ degeneracy ≤ d, and then a K_{d+1}
// member's later neighborhood has size exactly d). Returns nil if none found.
func (g *Graph) FindCliqueDPlus1(d int) []int {
	if d < 1 {
		return nil
	}
	res := g.DegeneracyOrder()
	if res.Degeneracy > d {
		// Outside the promised regime; fall back to a bounded search over
		// later-neighborhood subsets only when the later neighborhood is
		// exactly d (still sound: report nil rather than guess).
	}
	later := make([]int, 0, d+1)
	for _, v := range res.Order {
		later = later[:0]
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if res.Pos[w] > res.Pos[v] {
				later = append(later, w)
			}
		}
		if len(later) < d {
			continue
		}
		if len(later) == d {
			if g.IsClique(later) {
				return append([]int{v}, later...)
			}
			continue
		}
		// Rare: later neighborhood bigger than d (degeneracy > d). Bounded
		// exact search for a d-clique inside it when small enough.
		if len(later) <= d+6 {
			if sub := findCliqueOfSize(g, later, d); sub != nil {
				return append([]int{v}, sub...)
			}
		}
	}
	return nil
}

// findCliqueOfSize searches cand (assumed all adjacent to an implicit apex)
// for a clique of the given size with simple branch and bound.
func findCliqueOfSize(g *Graph, cand []int, size int) []int {
	var cur []int
	var rec func(start int) []int
	rec = func(start int) []int {
		if len(cur) == size {
			out := make([]int, size)
			copy(out, cur)
			return out
		}
		for i := start; i < len(cand); i++ {
			if len(cur)+len(cand)-i < size {
				return nil
			}
			v := cand[i]
			ok := true
			for _, u := range cur {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, v)
			if out := rec(i + 1); out != nil {
				return out
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	return rec(0)
}

// ContainsTriangle reports whether the graph has a triangle, returning one.
func (g *Graph) ContainsTriangle() (bool, [3]int) {
	for u := 0; u < g.N(); u++ {
		for _, w32 := range g.Neighbors(u) {
			w := int(w32)
			if w <= u {
				continue
			}
			// intersect adjacency lists
			a, b := g.Neighbors(u), g.Neighbors(w)
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					x := int(a[i])
					if x != u && x != w {
						return true, [3]int{u, w, x}
					}
					i++
					j++
				}
			}
		}
	}
	return false, [3]int{}
}
