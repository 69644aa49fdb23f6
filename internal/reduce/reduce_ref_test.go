package reduce

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// sweepDegPlusOne is DegPlusOne as it was before the schedule walked a
// vertex list: Linial over all n vertices with a mask (digits in an n·t
// array, remainders by division), then the class reduction bucketing all
// k classes. DegPlusOneList must reproduce its colors and charges exactly.
func sweepDegPlusOne(nw *local.Network, ledger *local.Ledger, phase string, mask []bool) []int {
	g := nw.G
	n := g.N()
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		colors[v] = nw.ID[v] - 1
	}
	k, d := n, 0
	for v := 0; v < n; v++ {
		if mask[v] {
			d = max(d, g.DegreeInMask(v, mask))
		}
	}
	if d == 0 {
		clear(colors)
		k = 1
	}
	for d > 0 {
		q, t := linialPrime(k, d)
		if q*q >= k {
			break
		}
		digits := make([]int, n*t)
		for v := 0; v < n; v++ {
			if mask[v] {
				copy(digits[v*t:], digitsBaseQ(colors[v], q, t))
			}
		}
		next := slices.Clone(colors)
		for v := 0; v < n; v++ {
			if !mask[v] {
				continue
			}
			pv := digits[v*t : (v+1)*t]
			x := 0
			for ; x < q; x++ {
				ok := true
				for _, w := range g.Neighbors(v) {
					if mask[w] && colors[w] != colors[v] && evalPoly(digits[int(w)*t:(int(w)+1)*t], x, q) == evalPoly(pv, x, q) {
						ok = false
						break
					}
				}
				if ok {
					break
				}
			}
			next[v] = x*q + evalPoly(pv, x, q)
		}
		colors, k = next, q*q
		ledger.Charge(phase+"/linial", 1)
	}
	rounds := 0
	for c := k - 1; c >= d+1; c-- {
		for v := 0; v < n; v++ {
			if !mask[v] || colors[v] != c {
				continue
			}
			used := make([]bool, d+1)
			for _, w := range g.Neighbors(v) {
				if mask[w] && colors[w] <= d {
					used[colors[w]] = true
				}
			}
			colors[v] = slices.Index(used, false)
		}
		rounds++
	}
	if rounds > 0 {
		ledger.Charge(phase+"/reduce", rounds)
	}
	return colors
}

// TestDegPlusOneListMatchesSweep compares the list schedule with
// sweepDegPlusOne on random graphs, random ID permutations and random
// vertex subsets (one vertex up to all of them), colors and per-phase
// charges alike.
func TestDegPlusOneListMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 21))
	iterated := 0
	for trial := 0; trial < 120; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Apollonian(50+rng.IntN(400), rng)
		case 1:
			n := 30 + rng.IntN(1500)
			g = gen.GNP(n, 3/float64(n), rng)
		default:
			g = gen.Grid(5+rng.IntN(40), 5+rng.IntN(40))
		}
		n := g.N()
		nw := local.NewShuffledNetwork(g, rng)
		mask := make([]bool, n)
		var verts []int
		keep := rng.Float64()
		for v := range mask {
			if rng.Float64() < keep || v == 0 {
				mask[v] = true
				verts = append(verts, v)
			}
		}
		var got, want local.Ledger
		colors := DegPlusOneList(nw, &got, "s", verts)
		ref := sweepDegPlusOne(nw, &want, "s", mask)
		for i, v := range verts {
			if colors[i] != ref[v] {
				t.Fatalf("trial %d (n=%d, |verts|=%d): vertex %d colored %d, want %d", trial, n, len(verts), v, colors[i], ref[v])
			}
		}
		if !slices.Equal(got.Phases(), want.Phases()) {
			t.Fatalf("trial %d: charges %v, want %v", trial, got.Phases(), want.Phases())
		}
		if want.Rounds() > 0 && want.Phases()[0].Phase == "s/linial" {
			iterated++
		}
	}
	if iterated < 40 {
		t.Fatalf("Linial iterated in %d trials; want ≥ 40", iterated)
	}
}

// bytesAllocated reports the bytes fn allocates, with the collector off
// so that nothing is freed (or a cached workspace dropped) mid-call.
func bytesAllocated(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLinialColorNilMaskAllocatesLinearly: with a nil mask every vertex is
// in the schedule, and the bytes allocated must grow linearly in n. (An
// all-true mask built inside the per-vertex degree loop once made them
// quadratic: 1 MB at n=1000, 16 MB at n=4000.)
func TestLinialColorNilMaskAllocatesLinearly(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	perVertex := func(n int) float64 {
		nw := local.NewShuffledNetwork(gen.Apollonian(n, rng), rng)
		LinialColor(nw, nil, "", nil) // warm the shared scratch caches
		return float64(bytesAllocated(func() { LinialColor(nw, nil, "", nil) })) / float64(n)
	}
	small, large := perVertex(1000), perVertex(8000)
	t.Logf("%.0f and %.0f B/vertex", small, large)
	if large > 1.5*small || large > 200 {
		t.Fatalf("LinialColor(nil) allocates %.0f B/vertex at n=1000 and %.0f at n=8000; want linear growth (≤ 1.5× and ≤ 200 B/vertex)", small, large)
	}
}
