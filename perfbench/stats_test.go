package main

import (
	"math"
	"testing"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples above rank 990
		{999, 0.99, 990, false}, // rank 990 leaves nine above
		{1500, 0.99, 1485, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		xs := seq(tc.n)
		v, n, ok := percentile(xs, tc.p)
		if v != tc.want || n != tc.n || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, p=%v) = %v, %d, %v; want %v, %d, %v", tc.n, tc.p, v, n, ok, tc.want, tc.n, tc.wantOK)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if v, n, ok := percentile(nil, 0.5); !math.IsNaN(v) || n != 0 || ok {
		t.Errorf("percentile(nil) = %v, %d, %v; want NaN, 0, false", v, n, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}
