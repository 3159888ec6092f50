package stats

// Welford accumulates count, mean, min and max online; the mean follows
// Welford's update, which is numerically stable for long runs. The zero
// value is ready to use. It is not safe for concurrent use.
type Welford struct {
	n    uint64
	mean float64
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
	w.mean += (x - w.mean) / float64(w.n)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 before any observation.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 before any observation.
func (w *Welford) Max() float64 { return w.max }

// Reset discards all state.
func (w *Welford) Reset() { *w = Welford{} }
