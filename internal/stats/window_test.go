package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Window has no caller outside this package's tests; it lives here until
// its tests retire with it.

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

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Cap() != 3 || w.Len() != 0 || w.Full() {
		t.Fatal("fresh window state wrong")
	}
	w.Observe(1)
	w.Observe(2)
	if w.Sum() != 3 || w.Len() != 2 || w.Full() {
		t.Fatalf("sum=%v len=%d", w.Sum(), w.Len())
	}
	w.Observe(3)
	if !w.Full() || w.Sum() != 6 {
		t.Fatalf("full=%v sum=%v", w.Full(), w.Sum())
	}
	w.Observe(10) // evicts 1
	if w.Sum() != 15 || w.Len() != 3 {
		t.Fatalf("after evict sum=%v len=%d", w.Sum(), w.Len())
	}
	if w.At(0) != 2 || w.At(1) != 3 || w.At(2) != 10 {
		t.Fatalf("order wrong: %v %v %v", w.At(0), w.At(1), w.At(2))
	}
}

func TestWindowMean(t *testing.T) {
	w := NewWindow(2)
	if w.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	w.Observe(4)
	w.Observe(6)
	if w.Mean() != 5 {
		t.Errorf("mean = %v", w.Mean())
	}
}

func TestWindowCapacityClamp(t *testing.T) {
	w := NewWindow(0)
	if w.Cap() != 1 {
		t.Errorf("cap = %d, want 1", w.Cap())
	}
	w.Observe(1)
	w.Observe(2)
	if w.Sum() != 2 {
		t.Errorf("sum = %v, want 2", w.Sum())
	}
}

func TestWindowThresholdPredicates(t *testing.T) {
	w := NewWindow(3)
	w.Observe(1)
	w.Observe(2)
	if w.AllBelow(10) {
		t.Error("not-full window must not satisfy AllBelow")
	}
	w.Observe(3)
	if !w.AllBelow(4) {
		t.Error("AllBelow(4) should hold for {1,2,3}")
	}
	if w.AllBelow(3) {
		t.Error("AllBelow(3) should fail for {1,2,3}")
	}
	if !w.AllAtLeast(1) {
		t.Error("AllAtLeast(1) should hold for {1,2,3}")
	}
	if w.AllAtLeast(2) {
		t.Error("AllAtLeast(2) should fail for {1,2,3}")
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(2)
	w.Observe(5)
	w.Reset()
	if w.Len() != 0 || w.Sum() != 0 {
		t.Error("reset failed")
	}
}

// Property: window sum equals the sum of the last min(len, cap) values.
func TestWindowSumProperty(t *testing.T) {
	f := func(capRaw uint8, xs []float64) bool {
		capacity := int(capRaw)%16 + 1
		w := NewWindow(capacity)
		var clean []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
			w.Observe(x)
		}
		start := 0
		if len(clean) > capacity {
			start = len(clean) - capacity
		}
		want := 0.0
		for _, x := range clean[start:] {
			want += x
		}
		return math.Abs(w.Sum()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
