package stats

import (
	"sync"
	"testing"
)

func TestPointRingWraparound(t *testing.T) {
	r := NewPointRing(4)
	for i := 1; i <= 10; i++ {
		r.Append(Point{Seq: uint64(i), T: float64(i), V: float64(i * i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(got))
	}
	// Oldest-first, newest 4 survive the wrap.
	for i, p := range got {
		want := uint64(7 + i)
		if p.Seq != want {
			t.Errorf("point %d: Seq = %d, want %d", i, p.Seq, want)
		}
		if p.V != float64(want*want) {
			t.Errorf("point %d: V = %g, want %g", i, p.V, float64(want*want))
		}
	}
}

func TestPointRingSinceCursor(t *testing.T) {
	r := NewPointRing(8)
	for i := 1; i <= 6; i++ {
		r.Append(Point{Seq: uint64(i), V: float64(i)})
	}
	got := r.Since(4)
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("Since(4) = %+v, want seqs 5,6", got)
	}
	if got := r.Since(6); got != nil {
		t.Fatalf("Since(6) = %+v, want nil", got)
	}
	if got := r.Since(0); len(got) != 6 {
		t.Fatalf("Since(0) len = %d, want 6", len(got))
	}
	// A cursor that fell off the back of the window resumes at the oldest
	// held point; the consumer detects the gap from the first Seq.
	for i := 7; i <= 20; i++ {
		r.Append(Point{Seq: uint64(i), V: float64(i)})
	}
	got = r.Since(3)
	if len(got) != 8 || got[0].Seq != 13 {
		t.Fatalf("Since(3) after wrap = %d points starting %d, want 8 starting 13",
			len(got), got[0].Seq)
	}
}

func TestPointRingEmptyAndTiny(t *testing.T) {
	r := NewPointRing(0) // clamps to 1
	if got := r.Since(0); got != nil {
		t.Fatalf("Since on empty ring = %+v", got)
	}
	r.Append(Point{Seq: 1, V: 1})
	r.Append(Point{Seq: 2, V: 2})
	if got := r.Snapshot(); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("capacity-1 ring holds %+v, want only seq 2", got)
	}
}

// TestPointRingConcurrentObserveSnapshot is the collector's regime: one
// producer appending while consumers snapshot incrementally. Run under
// -race this pins the locking; in any mode it checks that every snapshot is
// a gap-free ascending slice of what the producer wrote.
func TestPointRingConcurrentObserveSnapshot(t *testing.T) {
	r := NewPointRing(64)
	const writes = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			r.Append(Point{Seq: uint64(i), T: float64(i), V: float64(i)})
		}
	}()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var cursor uint64
			for {
				pts := r.Since(cursor)
				for i, p := range pts {
					if p.Seq <= cursor {
						t.Errorf("point %d: Seq %d not after cursor %d", i, p.Seq, cursor)
						return
					}
					if i > 0 && p.Seq != pts[i-1].Seq+1 {
						t.Errorf("gap inside one snapshot: %d -> %d", pts[i-1].Seq, p.Seq)
						return
					}
					cursor = p.Seq
				}
				select {
				case <-stop:
					if cursor == writes {
						return
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}

func TestWindowWraparound(t *testing.T) {
	w := NewWindow(3)
	for i := 1; i <= 7; i++ {
		w.Observe(float64(i))
	}
	if !w.Full() || w.Len() != 3 {
		t.Fatalf("Len = %d, Full = %v; want 3, true", w.Len(), w.Full())
	}
	if w.Sum() != 5+6+7 {
		t.Errorf("Sum = %g, want 18", w.Sum())
	}
	if w.Mean() != 6 {
		t.Errorf("Mean = %g, want 6", w.Mean())
	}
	for i := 0; i < 3; i++ {
		if got, want := w.At(i), float64(5+i); got != want {
			t.Errorf("At(%d) = %g, want %g", i, got, want)
		}
	}
	w.Reset()
	if w.Len() != 0 || w.Sum() != 0 {
		t.Errorf("after Reset: Len %d Sum %g", w.Len(), w.Sum())
	}
	// Running sum stays exact through many evictions.
	w2 := NewWindow(5)
	for i := 0; i < 1000; i++ {
		w2.Observe(float64(i % 13))
	}
	var want float64
	for i := 0; i < w2.Len(); i++ {
		want += w2.At(i)
	}
	if diff := w2.Sum() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("running sum drifted: Sum %g vs recomputed %g", w2.Sum(), want)
	}
}

func TestHistogramQuantilesUnderDecay(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	// Old regime: everything near 90.
	for i := 0; i < 1000; i++ {
		h.Observe(90)
	}
	if q := h.Quantile(0.5); q < 85 || q > 95 {
		t.Fatalf("pre-decay median = %g, want ~90", q)
	}
	// Regime change: decay the history hard, then observe the new regime.
	for i := 0; i < 8; i++ {
		h.Decay(0.1)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(10)
	}
	if q := h.Quantile(0.5); q < 5 || q > 15 {
		t.Errorf("post-decay median = %g, want ~10 (old regime should have lost its weight)", q)
	}
	if q := h.Quantile(0.99); q > 95 {
		// With the old mass decayed to zero even p99 must leave the old bucket.
		t.Errorf("post-decay p99 = %g, want below 95", q)
	}
	// Count bookkeeping stays consistent under decay.
	var sum uint64
	for i := 0; i < h.NumBuckets(); i++ {
		sum += h.Bucket(i)
	}
	sum += h.Underflow() + h.Overflow()
	if sum != h.Count() {
		t.Errorf("Count = %d but buckets sum to %d", h.Count(), sum)
	}
	// Decay to extinction: single counts round down to zero.
	h2 := NewHistogram(0, 10, 10)
	h2.Observe(5)
	h2.Decay(0.5)
	if h2.Count() != 0 {
		t.Errorf("count-1 histogram after Decay(0.5): Count = %d, want 0", h2.Count())
	}
	// Factor >= 1 is a no-op, factor < 0 clamps to full reset.
	h3 := NewHistogram(0, 10, 10)
	h3.Observe(5)
	h3.Decay(1.5)
	if h3.Count() != 1 {
		t.Errorf("Decay(1.5) changed the histogram: Count = %d", h3.Count())
	}
	h3.Decay(-1)
	if h3.Count() != 0 {
		t.Errorf("Decay(-1) left Count = %d, want 0", h3.Count())
	}
}
