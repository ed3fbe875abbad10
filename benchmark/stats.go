package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. An empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// weightedQuantile is quantile for samples with non-negative weights:
// the smallest value whose cumulative weight reaches q of the total.
func weightedQuantile(xs, ws []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	target := q * sum(ws)
	var acc float64
	for _, i := range idx {
		acc += ws[i]
		if acc >= target {
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}

// tailPercentile is the highest of p99, p95 and p90 that has at least
// ten samples beyond it in a sample of n, so a tail is never read off a
// handful of points; 0 when even p90 is unsupported.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile with
// the same method as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
