package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0 <= q <= 1) of the samples by
// linear interpolation between order statistics (the "type 7" estimator:
// rank h = (n-1)q). It works on raw samples, never on histogram buckets,
// so the reported percentile is a value that was actually bracketed by
// measurements. The input is not modified. NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already ascending slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// beyond counts the samples strictly above the q-th quantile: the number
// of observations a tail percentile rests on.
func beyond(samples []float64, q float64) int {
	v := quantile(samples, q)
	n := 0
	for _, x := range samples {
		if x > v {
			n++
		}
	}
	return n
}

// mean returns the arithmetic mean; NaN for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return sum(samples) / float64(len(samples))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
