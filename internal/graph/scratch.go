package graph

import "sync"

// A scratchCache hands out reusable workspaces (traversals, block-DFS
// state, index maps) shared by every graph. The first keptScratch
// workspaces of at most keptScratchVertices vertex slots are held in a
// plain free list, which, unlike a sync.Pool, survives garbage collection:
// the Lemma 3.2 extension allocates enough to run several GC cycles per
// job, and a pool emptied by each of them regrows its buffers by doubling
// on every call. Larger workspaces go to a sync.Pool, so one huge graph
// does not pin its scratch for the life of the process.
type scratchCache[T any] struct {
	mu    sync.Mutex
	kept  []*T
	large sync.Pool
}

const (
	keptScratch         = 4
	keptScratchVertices = 1 << 18
)

// get returns a cached workspace, or nil when none is free.
func (c *scratchCache[T]) get() *T {
	c.mu.Lock()
	if k := len(c.kept); k > 0 {
		t := c.kept[k-1]
		c.kept[k-1] = nil
		c.kept = c.kept[:k-1]
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	t, _ := c.large.Get().(*T)
	return t
}

// put returns a workspace sized for the given number of vertices.
func (c *scratchCache[T]) put(t *T, vertices int) {
	if vertices <= keptScratchVertices {
		c.mu.Lock()
		if len(c.kept) < keptScratch {
			c.kept = append(c.kept, t)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	c.large.Put(t)
}

// growZeroed extends s with zero values to length n (never shrinks it).
func growZeroed[E any](s []E, n int) []E {
	if n > len(s) {
		s = append(s, make([]E, n-len(s))...)
	}
	return s
}
