// Package stats provides the small statistical toolkit used by the DoPE
// runtime and its experiment harness: exponentially weighted moving
// averages, online mean/min/max (Welford), percentiles, and the point ring
// behind the collector's time series.
//
// Everything here is deliberately allocation-light: mechanisms consult these
// estimators on the hot reconfiguration path, and the paper reports total
// monitoring overhead below 1%.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted; a copy is
// sorted internally. It returns an error for empty input or p out of range.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }
