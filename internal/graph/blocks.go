package graph

import "slices"

// Block is a biconnected component: a maximal 2-connected subgraph, or a
// bridge edge, or (degenerately) an isolated vertex is *not* a block — blocks
// always contain at least one edge.
type Block struct {
	// Vertices of the block, each listed once.
	Vertices []int
	// Edges of the block as (u,v) pairs with original vertex ids.
	Edges [][2]int
}

// BlockDecomposition is the result of a biconnected-component decomposition.
type BlockDecomposition struct {
	Blocks []Block
	// IsCut[v] reports whether v is an articulation point (cut vertex) of its
	// component.
	IsCut []bool
	// BlocksOf[v] lists the indices (into Blocks) of the blocks containing v.
	// Non-cut vertices belong to exactly one block (if they have an edge).
	BlocksOf [][]int
}

type blockEdge struct{ u, v int32 }

// blocksScratch is the cached DFS workspace of blocksDFS. Only num needs
// clearing per use (0 = unvisited); low/parent/iter are written at each
// vertex's discovery, and seenIn uses the monotone blockStamp counter so
// stale entries can never collide. blkEdges and blkVerts collect every
// emitted block back to back, so Blocks can copy them out at exact size.
type blocksScratch struct {
	num, low, parent, iter []int32
	seenIn                 []uint32
	blockStamp             uint32
	estack                 []blockEdge
	stack                  []int32
	blkEdges               [][2]int
	blkVerts               []int
	// blkEnds[i] holds the ends of block i in blkEdges and blkVerts.
	blkEnds [][2]int
}

var blocksScratches scratchCache[blocksScratch]

func acquireBlocksScratch(n int) *blocksScratch {
	s := blocksScratches.get()
	if s == nil {
		s = &blocksScratch{}
	}
	s.num = growZeroed(s.num, n)
	s.low = growZeroed(s.low, n)
	s.parent = growZeroed(s.parent, n)
	s.iter = growZeroed(s.iter, n)
	s.seenIn = growZeroed(s.seenIn, n)
	clear(s.num[:n])
	s.estack = s.estack[:0]
	s.stack = s.stack[:0]
	s.blkEdges = s.blkEdges[:0]
	s.blkVerts = s.blkVerts[:0]
	s.blkEnds = s.blkEnds[:0]
	return s
}

func releaseBlocksScratch(s *blocksScratch) { blocksScratches.put(s, len(s.num)) }

// blocksDFS is the Hopcroft–Tarjan core shared by Blocks and
// IsGallaiForest. For every emitted block it appends the block's edges and
// vertices to ws.blkEdges and ws.blkVerts, records their ends in
// ws.blkEnds, and calls sink with the block's part of the two slices, in
// deterministic first-seen order; sink returns false to abort the walk
// early. markCut (may be nil) is called for articulation points, possibly
// more than once per vertex.
func (g *Graph) blocksDFS(ws *blocksScratch, mask []bool, sink func(edges [][2]int, verts []int) bool, markCut func(int)) {
	n := g.N()
	num, low, parent, iter := ws.num, ws.low, ws.parent, ws.iter
	estack := ws.estack
	counter := int32(0)

	inMask := func(v int32) bool { return mask == nil || mask[v] }

	// seenIn[w] stamps the block w was last emitted into, so vertex dedup
	// inside popBlock is a flat-array probe instead of a map.
	seenIn := ws.seenIn
	popBlock := func(u, v int32) bool {
		// Pop edges up to and including (u,v) and emit them as one block.
		e0, v0 := len(ws.blkEdges), len(ws.blkVerts)
		if ws.blockStamp == ^uint32(0) { // stamp wrap: clear once every 2³² blocks
			clear(seenIn)
			ws.blockStamp = 0
		}
		ws.blockStamp++
		stampv := ws.blockStamp
		addVert := func(w int32) {
			if seenIn[w] != stampv {
				seenIn[w] = stampv
				ws.blkVerts = append(ws.blkVerts, int(w))
			}
		}
		for len(estack) > 0 {
			e := estack[len(estack)-1]
			estack = estack[:len(estack)-1]
			ws.blkEdges = append(ws.blkEdges, [2]int{int(e.u), int(e.v)})
			addVert(e.u)
			addVert(e.v)
			if e.u == u && e.v == v {
				break
			}
		}
		ws.blkEnds = append(ws.blkEnds, [2]int{len(ws.blkEdges), len(ws.blkVerts)})
		return sink(ws.blkEdges[e0:], ws.blkVerts[v0:])
	}

	stack := ws.stack
	defer func() {
		ws.estack = estack[:0]
		ws.stack = stack[:0]
	}()
	for r := 0; r < n; r++ {
		root := int32(r)
		if num[root] != 0 || !inMask(root) {
			continue
		}
		counter++
		num[root] = counter
		low[root] = counter
		parent[root] = -1
		iter[root] = 0
		stack = append(stack[:0], root)
		rootChildren := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			advanced := false
			nbrs := g.Neighbors(int(v))
			for int(iter[v]) < len(nbrs) {
				w := nbrs[iter[v]]
				iter[v]++
				if !inMask(w) {
					continue
				}
				if num[w] == 0 {
					estack = append(estack, blockEdge{v, w})
					parent[w] = v
					counter++
					num[w] = counter
					low[w] = counter
					iter[w] = 0
					stack = append(stack, w)
					if v == root {
						rootChildren++
					}
					advanced = true
					break
				}
				if w != parent[v] && num[w] < num[v] {
					// back edge
					estack = append(estack, blockEdge{v, w})
					if num[w] < low[v] {
						low[v] = num[w]
					}
				}
			}
			if advanced {
				continue
			}
			// Retreat from v.
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= num[p] {
					// p separates v's subtree: one block ends here.
					if p != root || rootChildren >= 1 {
						if !popBlock(p, v) {
							return
						}
					}
					if p != root && markCut != nil {
						markCut(int(p))
					}
				}
			}
		}
		if rootChildren >= 2 && markCut != nil {
			markCut(r)
		}
	}
}

// Blocks computes the biconnected components of the masked graph (nil mask =
// all vertices) with an iterative Hopcroft–Tarjan DFS (no recursion, safe for
// path graphs of any length). The DFS workspace is cached across calls (the
// root-ball recoloring path runs Blocks on thousands of tiny induced
// subgraphs), and the result is copied out of it at exact size: the blocks'
// edges, their vertices and BlocksOf each share one backing array, so a
// call allocates a fixed handful of times, however many blocks it finds.
func (g *Graph) Blocks(mask []bool) *BlockDecomposition {
	n := g.N()
	ws := acquireBlocksScratch(n)
	defer releaseBlocksScratch(ws)
	dec := &BlockDecomposition{IsCut: make([]bool, n)}
	g.blocksDFS(ws, mask, func([][2]int, []int) bool { return true },
		func(v int) { dec.IsCut[v] = true })

	edges := slices.Clone(ws.blkEdges)
	verts := slices.Clone(ws.blkVerts)
	dec.Blocks = make([]Block, len(ws.blkEnds))
	e0, v0 := 0, 0
	for i, end := range ws.blkEnds {
		dec.Blocks[i] = Block{Edges: edges[e0:end[0]:end[0]], Vertices: verts[v0:end[1]:end[1]]}
		e0, v0 = end[0], end[1]
	}

	// BlocksOf: count each vertex's blocks (in iter, free once the DFS is
	// done), carve one backing array into per-vertex slices of exactly
	// that capacity, then fill them in block order.
	count := ws.iter[:n]
	clear(count)
	for _, v := range verts {
		count[v]++
	}
	backing := make([]int, len(verts))
	dec.BlocksOf = make([][]int, n)
	off := 0
	for v, c := range count {
		if c > 0 {
			dec.BlocksOf[v] = backing[off : off : off+int(c)]
			off += int(c)
		}
	}
	for i := range dec.Blocks {
		for _, v := range dec.Blocks[i].Vertices {
			dec.BlocksOf[v] = append(dec.BlocksOf[v], i)
		}
	}
	return dec
}

// blockIsClique reports whether the block is a complete graph.
func blockIsClique(b *Block) bool {
	k := len(b.Vertices)
	return len(b.Edges) == k*(k-1)/2
}

// blockIsOddCycle reports whether the block is a cycle of odd length ≥ 3.
// (K3 counts as both a clique and an odd cycle.)
func blockIsOddCycle(b *Block) bool {
	k := len(b.Vertices)
	if k < 3 || k%2 == 0 || len(b.Edges) != k {
		return false
	}
	deg := make(map[int]int, k)
	for _, e := range b.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for _, d := range deg {
		if d != 2 {
			return false
		}
	}
	return true
}

// BlockIsGood reports whether the block is a clique or an odd cycle, i.e.
// an allowed block of a Gallai tree.
func BlockIsGood(b *Block) bool {
	return blockIsClique(b) || blockIsOddCycle(b)
}

// IsGallaiForest reports whether every connected component of the masked
// graph is a Gallai tree: every block is a clique or an odd cycle. The empty
// graph and edgeless graphs are Gallai forests. It streams blocks out of the
// DFS and aborts at the first bad one, allocating nothing once the cached
// workspace has grown to the graph — the happy-set classification calls
// this once per candidate ball.
func (g *Graph) IsGallaiForest(mask []bool) bool {
	ws := acquireBlocksScratch(g.N())
	defer releaseBlocksScratch(ws)
	good := true
	g.blocksDFS(ws, mask, func(edges [][2]int, verts []int) bool {
		k := len(verts)
		if len(edges) == k*(k-1)/2 {
			return true // clique (includes bridges, k=2)
		}
		// A block with ≥3 vertices is 2-connected, so minimum degree ≥ 2;
		// |E| = |V| then forces 2-regularity, i.e. a cycle.
		if k >= 3 && k%2 == 1 && len(edges) == k {
			return true // odd cycle
		}
		good = false
		return false
	}, nil)
	return good
}

// FirstBadBlock returns the index of some block that is neither a clique nor
// an odd cycle, or -1 if the masked graph is a Gallai forest.
func FirstBadBlock(dec *BlockDecomposition) int {
	for i := range dec.Blocks {
		if !BlockIsGood(&dec.Blocks[i]) {
			return i
		}
	}
	return -1
}

// BlockTree returns, for a connected masked graph, an adjacency structure
// over blocks: blockAdj[i] lists blocks sharing a cut vertex with block i,
// and sharedCut[i][j-th entry] is that cut vertex. Used to peel blocks in
// reverse order toward a chosen root block.
type BlockTree struct {
	Dec *BlockDecomposition
	// Adj[i] lists neighboring block indices of block i in the block-cut
	// tree (blocks sharing a cut vertex).
	Adj [][]int
	// Via[i][k] is the cut vertex shared between block i and Adj[i][k].
	Via [][]int
}

// NewBlockTree builds the block adjacency from a decomposition.
func NewBlockTree(dec *BlockDecomposition) *BlockTree {
	t := &BlockTree{
		Dec: dec,
		Adj: make([][]int, len(dec.Blocks)),
		Via: make([][]int, len(dec.Blocks)),
	}
	for v, blocks := range dec.BlocksOf {
		if len(blocks) < 2 {
			continue
		}
		for i := 0; i < len(blocks); i++ {
			for j := 0; j < len(blocks); j++ {
				if i == j {
					continue
				}
				t.Adj[blocks[i]] = append(t.Adj[blocks[i]], blocks[j])
				t.Via[blocks[i]] = append(t.Via[blocks[i]], v)
			}
		}
	}
	return t
}

// PeelOrder returns the blocks of the component containing root in an order
// such that processing them in *reverse* visits every non-root block after
// all blocks farther from root, together with, for each block, the cut
// vertex leading toward the root block (-1 for the root block itself).
// Blocks of other components are not returned.
func (t *BlockTree) PeelOrder(root int) (order []int, towardRoot []int) {
	n := len(t.Dec.Blocks)
	seen := make([]bool, n)
	toward := make([]int, n)
	for i := range toward {
		toward[i] = -1
	}
	queue := []int{root}
	seen[root] = true
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		order = append(order, b)
		for k, nb := range t.Adj[b] {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			toward[nb] = t.Via[b][k]
			queue = append(queue, nb)
		}
	}
	tw := make([]int, len(order))
	for i, b := range order {
		tw[i] = toward[b]
	}
	return order, tw
}
