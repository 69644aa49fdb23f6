package ruling_test

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"

	"distcolor/internal/core"
	"distcolor/internal/gen"
	"distcolor/internal/local"
	"distcolor/internal/reduce"
	"distcolor/internal/ruling"
)

// TestLayerAllocsIndependentOfN: one late Lemma 3.2 layer — a ruling
// forest for 64 happy vertices, then the schedule of its tree — must
// allocate what the layer needs, not what n is. The 64 vertices are a BFS
// ball of a random 3-regular graph (the same local shape at any n) and
// every vertex is rich, as in Theorem 1.3 with d = 3. The first call on a
// workspace builds its ID inverse and warms the shared traversal caches;
// the second is measured, with the collector off.
func TestLayerAllocsIndependentOfN(t *testing.T) {
	layerBytes := func(n int) uint64 {
		rng := rand.New(rand.NewPCG(uint64(n), 64))
		g, err := gen.RandomRegular(n, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		nw := local.NewShuffledNetwork(g, rng)
		u := g.Ball(0, 10, nil)[:64]
		radius := int(math.Ceil(core.DefaultBallC * math.Log2(float64(n))))
		ws, err := ruling.NewWorkspace(nw)
		if err != nil {
			t.Fatal(err)
		}
		layer := func() {
			f, err := ws.Compute(context.Background(), nil, "", nil, u, 2*radius+2)
			if err != nil {
				t.Fatal(err)
			}
			reduce.DegPlusOneList(nw, nil, "", f.Tree)
		}
		layer()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		layer()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := layerBytes(10_000), layerBytes(100_000)
	t.Logf("layer allocates %d B at n=10⁴, %d B at n=10⁵", small, large)
	if float64(large) > 1.5*float64(small)+4096 {
		t.Fatalf("layer allocates %d B at n=10⁴ but %d B at n=10⁵; want the same within 1.5× + 4 KiB", small, large)
	}
}
