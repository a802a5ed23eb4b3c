package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
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

// percentile is the nearest-rank percentile: the smallest sample with at
// least p·n samples at or below it, so n − ⌈p·n⌉ samples lie beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailN is the smallest sample count at which the p-th percentile has ten
// samples beyond it.
func tailN(p float64) int {
	return int(math.Ceil(10/(1-p) - 1e-9))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, the definition the benchmark's spreads use.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
