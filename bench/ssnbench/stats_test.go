package main

import (
	"math"
	"testing"
)

func TestQuantileHandComputed(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct {
		name    string
		samples []float64
		q, want float64
	}{
		{"median odd", []float64{5, 1, 3}, 0.5, 3},
		{"median even", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"lower quartile", []float64{4, 1, 3, 2}, 0.25, 1.75},
		{"upper quartile", []float64{4, 1, 3, 2}, 0.75, 3.25},
		{"p99 of four", []float64{4, 1, 3, 2}, 0.99, 3.97},
		{"p50 of 1..100", hundred, 0.5, 50.5},
		{"p99 of 1..100", hundred, 0.99, 99.01},
		{"min", []float64{7, 9}, 0, 7},
		{"max", []float64{7, 9}, 1, 9},
		{"single", []float64{42}, 0.99, 42},
	}
	for _, c := range cases {
		if got := quantile(c.samples, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestPooledPercentileAndBeyond(t *testing.T) {
	// Two rounds pooled: 1..50 and 51..100 give the same percentiles as
	// one round of 1..100.
	var a, b []float64
	for i := 1; i <= 50; i++ {
		a = append(a, float64(i))
		b = append(b, float64(i+50))
	}
	pooled := append(append([]float64(nil), a...), b...)
	if got := quantile(pooled, 0.99); math.Abs(got-99.01) > 1e-12 {
		t.Errorf("pooled p99 = %v, want 99.01", got)
	}
	if got := beyond(pooled, 0.99); got != 1 {
		t.Errorf("samples beyond p99 = %d, want 1", got)
	}
	if got := beyond(pooled, 0.5); got != 50 {
		t.Errorf("samples beyond p50 = %d, want 50", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := median([]float64{0.2, 0.1, 0.4, 0.3, 10}); got != 0.3 {
		t.Errorf("median = %v, want 0.3", got)
	}
}
