package main

import (
	"math"
	"sort"
)

// median returns the median of v (0 for none); v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of all
// samples at or below it.
func nearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile of v that has tailBeyond samples
// beyond it — the (tailBeyond+1)-th largest sample — and that
// percentile. With too few samples it returns the maximum and the
// percentile 100.
func tail(v []float64) (value, percentile float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}
