package stats

// Window is a fixed-capacity sliding window of float64 observations with an
// O(1) running sum. When full, each new observation evicts the oldest.
// It is not safe for concurrent use.
type Window struct {
	buf  []float64
	head int
	n    int
	sum  float64
}

// NewWindow returns a window holding at most capacity observations.
// Capacity below 1 is treated as 1.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity)}
}

// Observe appends x, evicting the oldest observation if the window is full.
func (w *Window) Observe(x float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.head]
		w.buf[w.head] = x
		w.sum += x
		w.head = (w.head + 1) % len(w.buf)
		return
	}
	w.buf[(w.head+w.n)%len(w.buf)] = x
	w.sum += x
	w.n++
}

// Len returns the number of observations currently held.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Full reports whether the window holds Cap observations.
func (w *Window) Full() bool { return w.n == len(w.buf) }

// Sum returns the sum of held observations.
func (w *Window) Sum() float64 { return w.sum }

// Mean returns the mean of held observations, or 0 when empty.
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// At returns the i-th oldest held observation; i must be in [0, Len()).
func (w *Window) At(i int) float64 {
	return w.buf[(w.head+i)%len(w.buf)]
}

// AllBelow reports whether the window is full and every held observation is
// strictly below threshold.
func (w *Window) AllBelow(threshold float64) bool {
	if !w.Full() {
		return false
	}
	for i := 0; i < w.n; i++ {
		if w.At(i) >= threshold {
			return false
		}
	}
	return true
}

// AllAtLeast reports whether the window is full and every held observation
// is at or above threshold.
func (w *Window) AllAtLeast(threshold float64) bool {
	if !w.Full() {
		return false
	}
	for i := 0; i < w.n; i++ {
		if w.At(i) < threshold {
			return false
		}
	}
	return true
}

// Reset empties the window.
func (w *Window) Reset() {
	w.head, w.n, w.sum = 0, 0, 0
}
