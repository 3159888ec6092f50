package stats

// Welford accumulates mean and variance online using Welford's algorithm,
// which is numerically stable for long runs. The zero value is ready to use.
// It is not safe for concurrent use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe folds x into the accumulator.
func (w *Welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the smallest observation, or 0 before any observation.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 before any observation.
func (w *Welford) Max() float64 { return w.max }

// Reset discards all state.
func (w *Welford) Reset() { *w = Welford{} }
