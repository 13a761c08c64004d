package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two when even),
// or NaN when xs is empty so a metric with no samples fails the NaN gate
// instead of reading as a plausible zero.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of xs, NaN if empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// lowest and highest return the extreme of xs, NaN if empty.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[0]
}

func highest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[len(xs)-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the layer did no work (b == 0): a per-layer
// metric of a layer the workload bypasses reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartile of the sorted xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default), which
// is how the driver measures a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
	}
	return at(1), at(3)
}
