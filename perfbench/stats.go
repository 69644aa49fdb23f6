package main

import "slices"

// tailBeyond is the number of samples that must lie beyond the tail
// percentile a workload reports: a run measures at least minSamples(p)
// jobs, so job_s.tail never rests on a handful of outliers.
const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups, by
// exactly the rule of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method): cut point i sits at 1-based position i·(n+1)/4 of
// the sorted samples, interpolating linearly between the two neighbours —
// and, like Python, extrapolating from the outermost pair when that
// position falls outside the samples. It needs at least two samples;
// fewer give all three as the lone value (or 0 for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// nearestRank returns the p-th percentile of sorted samples s by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func nearestRank(s []float64, p int) float64 {
	k := max(1, min(rank(p, len(s)), len(s)))
	return s[k-1]
}

// rank is the 1-based nearest rank of percentile p among n samples,
// ⌈p·n/100⌉, in exact integer arithmetic.
func rank(p, n int) int { return (p*n + 99) / 100 }

// minSamples is the fewest samples whose nearest-rank p-th percentile
// still has tailBeyond samples above it.
func minSamples(p int) int {
	n := 1
	for n-rank(p, n) < tailBeyond {
		n++
	}
	return n
}

// tail returns the nearest-rank p-th percentile of xs, or 0 for no
// samples. Every workload reports one fixed percentile, so two runs
// compare the same quantile whatever their job counts.
func tail(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sorted(xs), p)
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
