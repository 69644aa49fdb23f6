package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 1}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), which
// the spread check of the benchmark's runs uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestMinSamples(t *testing.T) {
	for _, tc := range []struct{ p, want int }{
		{1, 11}, // rank 1, ten samples beyond
		{50, 20},
		{75, 40},
		{90, 100},
		{99, 1000},
	} {
		if got := minSamples(tc.p); got != tc.want {
			t.Errorf("minSamples(%d) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// minSamples(p) samples leave at least tailBeyond beyond the p-th
// percentile's rank, and one sample fewer does not.
func TestMinSamplesIsFewestWithTenBeyond(t *testing.T) {
	beyond := func(n, p int) int { return n - int(math.Ceil(float64(p)*float64(n)/100-1e-9)) }
	for p := 1; p <= 99; p++ {
		n := minSamples(p)
		if beyond(n, p) < tailBeyond {
			t.Fatalf("p%d: %d samples leave only %d beyond", p, n, beyond(n, p))
		}
		if beyond(n-1, p) >= tailBeyond {
			t.Fatalf("p%d: %d samples already leave %d beyond", p, n-1, beyond(n-1, p))
		}
		for m := n; m < n+500; m++ { // more samples never leave fewer beyond
			if beyond(m, p) < tailBeyond {
				t.Fatalf("p%d: %d samples leave only %d beyond", p, m, beyond(m, p))
			}
		}
	}
}

func TestTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p  int
		value float64
	}{
		{0, 75, 0},
		{1, 75, 1},
		{5, 75, 4}, // below minSamples the percentile is still p75
		{40, 75, 30},
		{41, 75, 31},
		{100, 90, 90},
		{2000, 90, 1800},
		{2000, 75, 1500},
	} {
		if v := tail(ramp(tc.n), tc.p); v != tc.value {
			t.Errorf("tail(1..%d, p%d) = %g, want %g", tc.n, tc.p, v, tc.value)
		}
	}
}
