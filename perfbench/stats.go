package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It sorts a copy, so xs keeps its order. An empty input yields NaN;
// p <= 0 yields the minimum and p >= 100 the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the zero-based index of the nearest-rank p-th percentile
// in a sorted sample of size n >= 1.
func rankIndex(n int, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 100 {
		return n - 1
	}
	// The epsilon keeps p·n/100 that is integral in exact arithmetic
	// (99·1000/100) from rounding up to the next rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// beyond is how many samples of a size-n set lie strictly above its
// nearest-rank p-th percentile: the tail a reported percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// mean returns the arithmetic mean, NaN for an empty input.
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

// median is the 50th percentile by linear interpolation between the two
// middle samples, as statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
