package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs and how many samples lie strictly beyond that rank. The guide's
// rule — report a percentile only with ten samples beyond it — is the
// caller's to apply.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// quantile returns the p-quantile (0 < p < 1) of xs by the method
// Python's statistics.quantiles uses (exclusive: position p·(n+1),
// linear interpolation, clamped to the sample range).
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p * float64(n+1)
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them, so spreads computed here
// match the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
