package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over fewer than 1000 samples would be set by a
// handful of outliers.
const minBeyond = 10

// rank returns the nearest-rank index of the q-quantile in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly after the q-quantile's rank.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

// tailQuantile is quantile for a reported tail: it refuses when fewer
// than minBeyond samples lie beyond the percentile.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if b := beyond(len(xs), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			100*q, len(xs), b, minBeyond)
	}
	return quantile(xs, q), nil
}

// median is the middle value of xs (the mean of the middle two for an
// even count), which it sorts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns Q1, median and Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// steadiness report matches how the spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// Python's exclusive method, integer steps included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
