package monitor

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestSlotIdleInterleaved is TestRateIdleInterleaved through per-slot
// recorders: the fold derives the stage's idle time from the slots, so
// while either slot holds a window open the stage is working, and only the
// stretch with both closed leaves the rate's gap.
func TestSlotIdleInterleaved(t *testing.T) {
	s := newStageStats(0.5)
	s.ObserveWorkerStart()
	s.ObserveWorkerStart()
	a, b := s.NewSlotRecorder(), s.NewSlotRecorder()
	ms := func(n int64) int64 { return time.Unix(50, 0).UnixNano() + n*int64(time.Millisecond) }

	a.ObserveBegin(ms(0))
	b.ObserveBegin(ms(10))
	b.ObserveEnd(ms(10), ms(20))
	s.Fold() // gap 20 ms from the first open: 50/s
	a.ObserveEnd(ms(30), ms(30))
	s.Fold() // gap 10 ms, covered by A's window: 100/s
	a.ObserveBegin(ms(130))
	a.ObserveEnd(ms(10), ms(140))
	// 110 ms of wall time minus the 100 ms with both slots closed: 100/s.
	// EWMA(0.5) over 50, 100, 100 is 87.5.
	if got := s.Snapshot().Rate; math.Abs(got-87.5) > 1e-9 {
		t.Fatalf("rate = %v, want 87.5", got)
	}
}

// TestSlotIdleSiblingOpen: a Begin after a long gap banks nothing while a
// sibling's window is open, since the stage was working all along.
func TestSlotIdleSiblingOpen(t *testing.T) {
	s := newStageStats(0.5)
	a, b := s.NewSlotRecorder(), s.NewSlotRecorder()
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	a.ObserveBegin(ms(0))
	a.ObserveEnd(ms(1), ms(1))
	b.ObserveBegin(ms(0))
	a.ObserveBegin(ms(50)) // 49 ms gap, but B is open throughout
	if got := a.idle.Load(); got != 0 {
		t.Fatalf("banked %d ns of idle with a sibling working", got)
	}
	a.ObserveEnd(ms(1), ms(51))
	b.ObserveEnd(ms(60), ms(60))
	a.ObserveBegin(ms(100)) // both closed since B's close at 60
	if got, want := a.idle.Load(), ms(40); got != want {
		t.Fatalf("banked %d ns, want %d (from the newest close to this Begin)", got, want)
	}
}

// TestSlotIdleAbandonedSibling: a sibling abandoned mid-window never
// closes; once ObserveAbandon marks its recorder dead, the others bank
// stage idle time again.
func TestSlotIdleAbandonedSibling(t *testing.T) {
	s := newStageStats(0.5)
	s.ObserveWorkerStart()
	s.ObserveWorkerStart()
	a, stuck := s.NewSlotRecorder(), s.NewSlotRecorder()
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	stuck.ObserveBegin(ms(0))
	a.ObserveBegin(ms(0))
	a.ObserveEnd(ms(1), ms(1))
	s.ObserveAbandon(stuck)
	a.ObserveBegin(ms(30))
	if got, want := a.idle.Load(), ms(29); got != want {
		t.Fatalf("banked %d ns, want %d: the dead sibling must not hold the stage open", got, want)
	}
}

// TestSlotIdleAfterTurnover: the stretch between a released slot's last
// close and a fresh slot's first Begin is stage idle time. The released
// slot has left the live list and the fresh one has no close of its own, so
// only the stage-level record of released closes can bound the stretch.
func TestSlotIdleAfterTurnover(t *testing.T) {
	s := newStageStats(0.5)
	for range 3 {
		s.ObserveWorkerStart()
	}
	a, b, _ := s.NewSlotRecorder(), s.NewSlotRecorder(), s.NewSlotRecorder()
	ms := func(n int64) int64 { return time.Unix(50, 0).UnixNano() + n*int64(time.Millisecond) }
	a.ObserveBegin(ms(0))
	a.ObserveEnd(ms(10), ms(10)) // 10 ms from the first open: 100/s
	a.Release()
	s.ObserveWorkerExit(false)
	b.ObserveBegin(ms(60_010))
	b.ObserveEnd(ms(10), ms(60_020))
	// 60.01 s of wall time minus the 60 s with every slot closed: 100/s.
	if got := s.Snapshot().Rate; math.Abs(got-100) > 1e-9 {
		t.Fatalf("rate = %v, want 100: the idle minute after the released slot's close counted as work", got)
	}
}

// TestSlotSampledWeights: an untimed window is represented by the next
// timed one, so the lifetime mean is the weighted estimate and iterations
// count every window.
func TestSlotSampledWeights(t *testing.T) {
	s := newStageStats(0.5)
	rec := s.NewSlotRecorder()
	now := int64(0)
	window := func(timed bool, dur int64) {
		rec.ObserveBeginUntimed()
		now += dur
		if timed {
			rec.ObserveEnd(dur, now)
		} else {
			rec.ObserveEndUntimed(NoStamp)
		}
	}
	window(true, 100)
	window(false, 999) // untimed: the next timed window stands for it
	window(false, 999)
	window(true, 400) // weight 3
	snap := s.Snapshot()
	if snap.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", snap.Iterations)
	}
	if want := (100 + 3*400) / 4.0 / 1e9; math.Abs(snap.MeanExecTime-want) > 1e-18 {
		t.Fatalf("mean exec = %v, want %v", snap.MeanExecTime, want)
	}
	window(false, 5) // not yet represented: the mean waits for a timed window
	if got := s.Snapshot(); got.Iterations != 5 || got.MeanExecTime != snap.MeanExecTime {
		t.Fatalf("after an untimed window: iterations %d, mean %v", got.Iterations, got.MeanExecTime)
	}
}

// TestSlotFoldConcurrent folds while slots record: every window is counted
// exactly once and the weighted exec sum is conserved, whatever the
// interleaving of producers and folds.
func TestSlotFoldConcurrent(t *testing.T) {
	const slots, windows = 4, 20_000
	s := newStageStats(0.25)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.Fold()
			}
		}
	}()
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := s.NewSlotRecorder()
			defer rec.Release()
			now := int64(0)
			for j := 0; j < windows; j++ {
				rec.ObserveBegin(now)
				now += 10
				if j%4 == 3 {
					rec.ObserveEnd(10, now)
				} else {
					rec.ObserveEndUntimed(now - 10)
				}
				now += 5
			}
		}()
	}
	wg.Wait()
	close(stop)
	snap := s.Snapshot()
	if snap.Iterations != slots*windows {
		t.Fatalf("iterations = %d, want %d", snap.Iterations, slots*windows)
	}
	if math.Abs(snap.MeanExecTime-10e-9) > 1e-15 {
		t.Fatalf("mean exec = %v, want 10 ns", snap.MeanExecTime)
	}
}
