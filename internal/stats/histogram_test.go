package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// Histogram has no caller outside this package's tests; it lives here until
// its tests retire with it.

// Histogram is a fixed-bucket linear histogram over [lo, hi). Observations
// outside the range land in saturating underflow/overflow buckets so counts
// are never lost. It is not safe for concurrent use.
type Histogram struct {
	lo, hi    float64
	width     float64
	buckets   []uint64
	underflow uint64
	overflow  uint64
	total     uint64
}

// NewHistogram returns a histogram with n equal-width buckets spanning
// [lo, hi). It panics if n < 1 or hi <= lo, which indicate programming
// errors rather than data conditions.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		panic("stats: histogram needs at least one bucket")
	}
	if hi <= lo {
		panic("stats: histogram range is empty")
	}
	return &Histogram{
		lo:      lo,
		hi:      hi,
		width:   (hi - lo) / float64(n),
		buckets: make([]uint64, n),
	}
}

// Observe records x.
func (h *Histogram) Observe(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.underflow++
	case x >= h.hi:
		h.overflow++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // guard float rounding at the top edge
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Count returns the total number of observations, including out-of-range.
func (h *Histogram) Count() uint64 { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// NumBuckets returns the number of in-range buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Underflow returns the count of observations below the range.
func (h *Histogram) Underflow() uint64 { return h.underflow }

// Overflow returns the count of observations at or above the range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Decay scales every bucket count (including underflow/overflow) by factor,
// rounding down, so old observations gradually lose weight: a collector that
// decays its sojourn histogram each tick keeps quantiles tracking the recent
// regime instead of the whole run. Factor is clamped to [0, 1); counts of 1
// decay to 0, so a stream that stops contributing eventually empties the
// histogram entirely.
func (h *Histogram) Decay(factor float64) {
	if factor < 0 {
		factor = 0
	}
	if factor >= 1 {
		return
	}
	var total uint64
	for i, c := range h.buckets {
		h.buckets[i] = uint64(float64(c) * factor)
		total += h.buckets[i]
	}
	h.underflow = uint64(float64(h.underflow) * factor)
	h.overflow = uint64(float64(h.overflow) * factor)
	h.total = total + h.underflow + h.overflow
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) assuming
// observations are uniform within each bucket. Out-of-range counts are
// attributed to the range edges. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	cum := float64(h.underflow)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.buckets {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.hi
}

// String renders a compact ASCII sketch, useful in trace output.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := uint64(1)
	for _, c := range h.buckets {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.buckets {
		bar := int(float64(c) / float64(maxCount) * 20)
		fmt.Fprintf(&b, "[%8.3g,%8.3g) %6d %s\n",
			h.lo+float64(i)*h.width, h.lo+float64(i+1)*h.width, c,
			strings.Repeat("#", bar))
	}
	return b.String()
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5, 9.99} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	wantBuckets := []uint64{2, 1, 1, 0, 1}
	for i, want := range wantBuckets {
		if got := h.Bucket(i); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Observe(-5)
	h.Observe(2)
	h.Observe(1) // hi is exclusive
	if h.Underflow() != 1 || h.Overflow() != 2 {
		t.Errorf("under=%d over=%d", h.Underflow(), h.Overflow())
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	h := NewHistogram(0, 0.3, 3)
	h.Observe(0.3 - 1e-16) // float noise must not index past the last bucket
	if h.Count() != 1 {
		t.Fatal("observation lost")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	q50 := h.Quantile(0.5)
	if math.Abs(q50-50) > 1.5 {
		t.Errorf("q50 = %v", q50)
	}
	q0 := h.Quantile(0)
	if q0 > 1 {
		t.Errorf("q0 = %v", q0)
	}
	if !math.IsNaN(NewHistogram(0, 1, 1).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(5)
	if q := h.Quantile(-1); q > 10 || q < 0 {
		t.Errorf("q(-1) = %v", q)
	}
	if q := h.Quantile(2); q > 10 || q < 0 {
		t.Errorf("q(2) = %v", q)
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero buckets", func() { NewHistogram(0, 1, 0) })
	mustPanic("empty range", func() { NewHistogram(1, 1, 4) })
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Observe(0.5)
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Errorf("expected a bar in %q", s)
	}
}

// Property: total count equals buckets + underflow + overflow.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-10, 10, 7)
		n := uint64(0)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Observe(x)
			n++
		}
		var inRange uint64
		for i := 0; i < h.NumBuckets(); i++ {
			inRange += h.Bucket(i)
		}
		return h.Count() == n && inRange+h.Underflow()+h.Overflow() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
