package queue

import (
	"math"
	"testing"
	"time"
)

// TestSamplingSlowStreamStampsEveryItem pins the "low-rate queues are
// unaffected" half of the stride rule: items a millisecond apart (1 k/s,
// ten times below the threshold) are all stamped, so every dequeue is a
// sojourn sample — including across a burst that briefly raised the stride.
func TestSamplingSlowStreamStampsEveryItem(t *testing.T) {
	q := New[int](0)
	var now int64
	q.SetNowFunc(func() int64 { return now })
	for i := 0; i < 500; i++ {
		now += int64(time.Millisecond)
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 { // two at a time, so items wait 1 ms and 0 ms
			q.Dequeue()
			q.Dequeue()
		}
	}
	if got := q.SojournSamples(); got != q.Dequeued() || got != 500 {
		t.Fatalf("%d samples over %d dequeues, want 500 of each", got, q.Dequeued())
	}
	if got := q.MeanSojourn(); got < 0 || got > 0.001 {
		t.Fatalf("mean sojourn %v outside the stream's waits [0, 1 ms]", got)
	}

	// A burst of back-to-back enqueues raises the stride; once the stream is
	// slow again it must come all the way back down to every item.
	for i := 0; i < 1000; i++ {
		now += int64(time.Microsecond)
		q.Enqueue(i)
		q.Dequeue()
	}
	for i := 0; i < 200; i++ { // 64+32+16+8+4+2 pushes halve it back to 1
		now += int64(time.Millisecond)
		q.Enqueue(i)
		q.Dequeue()
	}
	before := q.SojournSamples()
	for i := 0; i < 100; i++ {
		now += int64(time.Millisecond)
		q.Enqueue(i)
		q.Dequeue()
	}
	if got := q.SojournSamples() - before; got != 100 {
		t.Fatalf("after the burst, %d of 100 slow items were stamped", got)
	}
}

// TestSamplingHotStreamEstimatesMean is the other half: at one item per
// 3 µs the clock is read for at most one item in eight (in fact one in 64
// once the stride has climbed), and the estimate from that sample stays
// within a tenth of the mean over every item. The consumer's lag — hence
// each item's wait — wanders by ±10 % with a period (7) that shares no
// factor with the stride, so the sample sees every phase of it.
func TestSamplingHotStreamEstimatesMean(t *testing.T) {
	q := New[int64](64)
	var now int64
	q.SetNowFunc(func() int64 { return now })
	const step = int64(3 * time.Microsecond)
	var total float64
	var served int
	for i := 0; i < 200_000; i++ {
		now += step
		if err := q.Enqueue(now); err != nil {
			t.Fatal(err)
		}
		lag := 18 + (i%7)/2 // 18..21 items behind
		for q.Len() > lag {
			v, err := q.Dequeue()
			if err != nil {
				t.Fatal(err)
			}
			total += float64(now-v) / 1e9
			served++
		}
	}
	exact := total / float64(served)
	got, samples := q.MeanSojourn(), q.SojournSamples()
	if samples == 0 || samples > uint64(served)/8 {
		t.Fatalf("%d of %d served items were stamped, want some and at most one in eight", samples, served)
	}
	if math.Abs(got-exact) > 0.1*exact {
		t.Fatalf("sampled mean sojourn %v, exact mean %v: off by more than a tenth", got, exact)
	}
}

// TestSamplingNeverFoldsShedItems repeats the survivorship check of
// TestSojournExcludesShedOldest on a stream hot enough to be sampled: 3×
// overload into a shed-oldest queue of 4, where two items in three are shed
// after waiting longer than any survivor. Stamped items that end up shed
// must vanish without a trace; the estimate is the survivors' wait.
func TestSamplingNeverFoldsShedItems(t *testing.T) {
	q := NewWithPolicy[int64](4, ShedOldest)
	var now int64
	q.SetNowFunc(func() int64 { return now })
	const step = int64(2 * time.Microsecond)
	var servedMax, shedMin float64 = 0, math.Inf(1)
	shadow := make([]int64, 0, 4)
	for i := 0; i < 60_000; i++ {
		now += step
		if len(shadow) == 4 {
			if i > 100 {
				shedMin = min(shedMin, float64(now-shadow[0])/1e9)
			}
			shadow = shadow[1:]
		}
		if err := q.Enqueue(now); err != nil {
			t.Fatal(err)
		}
		shadow = append(shadow, now)
		if i%3 == 2 { // service at a third of the arrival rate
			v, err := q.Dequeue()
			if err != nil || v != shadow[0] {
				t.Fatalf("served %d, %v; shadow expected %d", v, err, shadow[0])
			}
			shadow = shadow[1:]
			servedMax = max(servedMax, float64(now-v)/1e9)
		}
	}
	served, samples := q.Dequeued(), q.SojournSamples()
	if q.Shed() < 2*served-8 {
		t.Fatalf("shed %d of %d offered: the overload did not bind", q.Shed(), q.Enqueued())
	}
	if samples == 0 || samples > served/8 {
		t.Fatalf("%d of %d served items were stamped, want some and at most one in eight", samples, served)
	}
	if servedMax >= shedMin {
		t.Fatalf("steady state drifted: a survivor waited %v, a shed item only %v", servedMax, shedMin)
	}
	if got := q.MeanSojourn(); got <= 0 || got > servedMax*1.001 {
		t.Fatalf("mean sojourn %v exceeds every survivor's wait (max %v; shed items waited ≥ %v): a shed item was folded",
			got, servedMax, shedMin)
	}
}
