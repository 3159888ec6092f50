// Package stat holds the benchmark's order statistics: percentiles that
// refuse to report a tail the sample cannot support, and the quartiles the
// repeat mode compares runs with.
package stat

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p95 over 100 samples is the sixth-largest value, and one slow
// request more or less moves it.
const MinBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100) of xs by nearest
// rank. It refuses when fewer than MinBeyond samples lie on the far side of
// the percentile (above it for p >= 50, below it otherwise). xs is not
// modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("stat: percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("stat: p%v of an empty sample", p)
	}
	if err := Supports(n, p); err != nil {
		return 0, err
	}
	return sorted(xs)[rank(n, p)-1], nil
}

// Supports reports whether a sample of n values can support its p-th
// percentile: at least MinBeyond values must lie on the far side of it
// (above it for p >= 50, below it otherwise).
func Supports(n int, p float64) error {
	r := rank(n, p)
	beyond := n - r
	if p < 50 {
		beyond = r - 1
	}
	if beyond < MinBeyond {
		return fmt.Errorf("stat: p%v of %d samples leaves %d beyond it, need %d", p, n, beyond, MinBeyond)
	}
	return nil
}

// rank is the 1-based nearest rank of the p-th percentile of n values.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), max(n, 1))
}

// PercentileLoose is Percentile without the sample-size guard, for
// diagnostics and sub-second smoke runs whose numbers nobody compares. An
// empty sample yields 0.
func PercentileLoose(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	return sorted(xs)[rank(n, p)-1]
}

// Quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// which is what the acceptance rule for this benchmark is stated in. It
// needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("stat: quartiles of %d samples", n)
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// Median returns the median of xs, or 0 for an empty sample.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
