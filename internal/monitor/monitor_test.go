package monitor

import (
	"math"
	"sync"
	"testing"
	"time"
)

var key = Key{Nest: "video", Stage: "transform"}

// observeWindow records one timed Begin..End window of rec.
func observeWindow(rec *SlotRecorder, begin, end time.Time) {
	rec.ObserveBegin(begin.UnixNano())
	rec.ObserveEnd(end.Sub(begin).Nanoseconds(), end.UnixNano())
}

func TestStageStatsExecTime(t *testing.T) {
	r := NewRegistry(0.5)
	s := r.Stage(key)
	rec := s.NewSlotRecorder()
	now := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		observeWindow(rec, now, now.Add(10*time.Millisecond))
		now = now.Add(10 * time.Millisecond)
	}
	if got := s.Snapshot().ExecTime; math.Abs(got-0.010) > 1e-6 {
		t.Fatalf("exec time = %v, want 0.010", got)
	}
	if got := s.Snapshot().MeanExecTime; math.Abs(got-0.010) > 1e-9 {
		t.Fatalf("mean exec time = %v", got)
	}
	if s.Snapshot().Iterations != 20 {
		t.Fatalf("iterations = %d", s.Snapshot().Iterations)
	}
	// One iteration per 10ms => 100/sec.
	if got := s.Snapshot().Rate; math.Abs(got-100) > 1 {
		t.Fatalf("rate = %v, want ~100", got)
	}
}

func TestStageIdentity(t *testing.T) {
	r := NewRegistry(0.2)
	a := r.Stage(key)
	b := r.Stage(key)
	if a != b {
		t.Fatal("same key must return same aggregate")
	}
	c := r.Stage(Key{Nest: "video", Stage: "read"})
	if a == c {
		t.Fatal("different keys must not share aggregates")
	}
}

func TestInstanceCompletion(t *testing.T) {
	r := NewRegistry(0.2)
	s := r.Stage(key)
	s.ObserveInstanceDone()
	s.ObserveInstanceDone()
	if s.Snapshot().Completed != 2 {
		t.Fatalf("completed = %d", s.Snapshot().Completed)
	}
}

func TestLoadRegistry(t *testing.T) {
	r := NewRegistry(0.2)
	load := func() (float64, int) {
		snap := r.Snapshot(key)
		return snap.Load, snap.LoadInstances
	}
	total, n := load()
	if total != 0 || n != 0 {
		t.Fatal("no registered loads should report zero")
	}
	rel1 := r.RegisterLoad(key, func() float64 { return 3 })
	rel2 := r.RegisterLoad(key, func() float64 { return 4 })
	total, n = load()
	if total != 7 || n != 2 {
		t.Fatalf("load = %v from %d instances", total, n)
	}
	rel1()
	total, n = load()
	if total != 4 || n != 1 {
		t.Fatalf("after release load = %v from %d", total, n)
	}
	rel2()
	rel2() // double release is harmless
	if _, n := load(); n != 0 {
		t.Fatal("all releases should empty the registry")
	}
}

func TestRegisterNilLoad(t *testing.T) {
	r := NewRegistry(0.2)
	release := r.RegisterLoad(key, nil)
	release() // no-op must not panic
	if n := r.Snapshot(key).LoadInstances; n != 0 {
		t.Fatal("nil load should not register")
	}
}

func TestKeysAndReset(t *testing.T) {
	r := NewRegistry(0.2)
	r.Stage(Key{Nest: "a", Stage: "x"})
	r.Stage(Key{Nest: "a", Stage: "y"})
	if got := len(r.Keys()); got != 2 {
		t.Fatalf("keys = %d", got)
	}
	r.Reset()
	if got := len(r.Keys()); got != 0 {
		t.Fatalf("keys after reset = %d", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(0.2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := Key{Nest: "n", Stage: "s"}
			rec := r.Stage(k).NewSlotRecorder()
			defer rec.Release()
			for j := 0; j < 200; j++ {
				at := time.Unix(int64(j), 0)
				observeWindow(rec, at, at.Add(time.Millisecond))
				rel := r.RegisterLoad(k, func() float64 { return 1 })
				r.Snapshot(k)
				rel()
			}
		}(i)
	}
	wg.Wait()
	if r.Stage(Key{Nest: "n", Stage: "s"}).Snapshot().Iterations != 1600 {
		t.Fatalf("iterations = %d", r.Stage(Key{Nest: "n", Stage: "s"}).Snapshot().Iterations)
	}
}

func TestFailureCounters(t *testing.T) {
	s := newStageStats(0.2)
	if s.Snapshot().Failures != 0 || s.Snapshot().ConsecutiveFailures != 0 {
		t.Fatal("fresh stats report failures")
	}
	if got := s.ObserveFailure(); got != 1 {
		t.Fatalf("first ObserveFailure = %d", got)
	}
	if got := s.ObserveFailure(); got != 2 {
		t.Fatalf("second ObserveFailure = %d", got)
	}
	if s.Snapshot().Failures != 2 || s.Snapshot().ConsecutiveFailures != 2 {
		t.Fatalf("counters = %d/%d", s.Snapshot().Failures, s.Snapshot().ConsecutiveFailures)
	}
	// A completed iteration breaks the streak but not the total.
	observeWindow(s.NewSlotRecorder(), time.Unix(1, 0), time.Unix(1, 0).Add(time.Millisecond))
	if s.Snapshot().ConsecutiveFailures != 0 {
		t.Fatalf("streak after iteration = %d", s.Snapshot().ConsecutiveFailures)
	}
	if s.Snapshot().Failures != 2 {
		t.Fatalf("total after iteration = %d", s.Snapshot().Failures)
	}
	if got := s.ObserveFailure(); got != 1 {
		t.Fatalf("streak restarts at %d", got)
	}
}

// TestRateExcludesIdleWait pins the idle-accounting contract of the rate
// EWMA: a stage that still has a live worker but sits with no Begin/End
// window open (blocked on sparse input) must not fold the wait into the
// inter-completion gap. Before idle accounting, the scenario below — worker
// A iterates, worker B arrives, A exits (so the worker gauge never touches
// zero and lastAt survives), then the stage idles 60 s before B's first
// completion — observed a gap of ~60 s and collapsed the rate to ~0.017/s.
func TestRateExcludesIdleWait(t *testing.T) {
	s := newStageStats(0.5)

	s.ObserveWorkerStart() // A
	a := s.NewSlotRecorder()
	t0 := time.Unix(100, 0)
	observeWindow(a, t0.Add(-10*time.Millisecond), t0)

	s.ObserveWorkerStart() // B arrives
	b := s.NewSlotRecorder()
	a.Release()
	s.ObserveWorkerExit(false) // A exits; workers 2 -> 1, lastAt survives

	// 60 s with no window open, then B completes one 10 ms iteration.
	begin := t0.Add(60 * time.Second)
	observeWindow(b, begin, begin.Add(10*time.Millisecond))

	// The gap net of banked idle time is the 10 ms window: ~100/s.
	if got := s.Snapshot().Rate; math.Abs(got-100) > 5 {
		t.Fatalf("rate after idle spell = %v, want ~100", got)
	}
}

// TestRateIdleInterleaved exercises overlapping windows: while any sibling
// worker still holds a window open, wall time is working time, and only the
// stretches with zero open windows are excluded.
func TestRateIdleInterleaved(t *testing.T) {
	s := newStageStats(0.5)
	s.ObserveWorkerStart()
	s.ObserveWorkerStart()
	a, b := s.NewSlotRecorder(), s.NewSlotRecorder()

	at := func(ms int) time.Time { return time.Unix(50, 0).Add(time.Duration(ms) * time.Millisecond) }

	// Worker A: window [0, 30]; completion at 30.
	a.ObserveBegin(at(0).UnixNano())
	// Worker B: window [10, 20] overlaps A's; its completion at 20 seeds
	// lastAt. Each Snapshot folds the completion just recorded.
	observeWindow(b, at(10), at(20))
	s.Snapshot()
	a.ObserveEnd(int64(30*time.Millisecond), at(30).UnixNano())
	s.Snapshot()
	// Idle [30, 130]: no window open. Then A iterates [130, 140].
	observeWindow(a, at(130), at(140))

	// Gap for the first completion at 20: anchored at the stage's first
	// window open (A's at 0) -> 20 ms -> 50/s. Gap for the completion at
	// 30: 10 ms (B's at 20 -> A's at 30, fully covered by open windows) ->
	// 100/s. Gap for the completion at 140: 110 ms wall minus 100 ms idle =
	// 10 ms -> 100/s. EWMA(0.5) over 50, 100, 100 settles at 87.5; had the
	// idle stretch folded in, the last observation would be ~9/s and the
	// EWMA would collapse below 45.
	if got := s.Snapshot().Rate; math.Abs(got-87.5) > 5 {
		t.Fatalf("rate with interleaved windows = %v, want ~87.5", got)
	}
}

// TestRateResetOnIdleStage pins the existing workers==0 contract after the
// idle-accounting change: once the last worker exits, the gap state is
// fully cleared, so the first completion of the next instance starts a
// fresh history instead of deriving a gap (or banked idle time) from
// before the pause.
func TestRateResetOnIdleStage(t *testing.T) {
	s := newStageStats(0.5)
	s.ObserveWorkerStart()
	a := s.NewSlotRecorder()
	t0 := time.Unix(100, 0)
	observeWindow(a, t0.Add(-10*time.Millisecond), t0)
	a.Release()
	s.ObserveWorkerExit(false) // workers 1 -> 0

	rate := s.Snapshot().Rate

	// A new two-slot instance an hour later, so the rate comes from the
	// inter-completion gap: its first completion must derive that gap from
	// its own first window, not from the completion before the pause.
	later := t0.Add(time.Hour)
	s.ObserveWorkerStart()
	s.ObserveWorkerStart()
	c := s.NewSlotRecorder()
	s.NewSlotRecorder() // a sibling that never opens a window
	observeWindow(c, later, later.Add(10*time.Millisecond))
	if got := s.Snapshot().Rate; got != rate {
		t.Fatalf("first completion after a worker-less pause moved the rate: %v -> %v", rate, got)
	}
}

// TestSnapshotPollsLiveGauges: Registry.Snapshot joins the durable aggregate
// with the gauges of the stage's live instances — shed is retired totals plus
// live counters and never goes backwards across a release, sojourn is the
// mean over reporting instances.
func TestSnapshotPollsLiveGauges(t *testing.T) {
	r := NewRegistry(0.2)
	observeWindow(r.Stage(key).NewSlotRecorder(), time.Unix(1, 0), time.Unix(1, 0).Add(10*time.Millisecond))
	relA := r.RegisterShed(key, func() uint64 { return 5 })
	relB := r.RegisterShed(key, func() uint64 { return 2 })
	r.RegisterSojourn(key, func() float64 { return 0.010 })
	relS := r.RegisterSojourn(key, func() float64 { return 0.030 })

	snap := r.Snapshot(key)
	if snap.Shed != 7 || r.Shed(key) != 7 {
		t.Fatalf("shed = %d (Shed() %d), want 7", snap.Shed, r.Shed(key))
	}
	if math.Abs(snap.QueueSojourn-0.020) > 1e-12 {
		t.Fatalf("sojourn = %v, want the 20ms mean", snap.QueueSojourn)
	}
	if snap.Iterations != 1 || !snap.Observed {
		t.Fatalf("durable aggregate missing from the snapshot: %+v", snap)
	}

	relA() // retires 5 into the durable total
	relS()
	snap = r.Snapshot(key)
	if snap.Shed != 7 {
		t.Fatalf("shed after release = %d, want 7", snap.Shed)
	}
	if snap.QueueSojourn != 0.010 {
		t.Fatalf("sojourn after release = %v, want 0.010", snap.QueueSojourn)
	}
	relB()
	if got := r.Stage(key).Snapshot().Shed; got != 7 {
		t.Fatalf("stage-level snapshot carries retired shed only: got %d, want 7", got)
	}
}
