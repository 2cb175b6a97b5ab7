package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for
// the sample to support it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, the
// number of samples it was taken over, and whether at least minBeyond
// samples lie above it. xs is not modified.
func percentile(xs []float64, p float64) (v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 || p <= 0 || p > 1 {
		return math.NaN(), n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n, n-rank >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
