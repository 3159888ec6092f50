package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/queue"
)

// The idle-wait contract: Worker.Done is closed whenever Worker.Suspending
// can turn true, so a functor blocked in queue.DequeueUntil(w.Done()) needs
// no timer to notice that the executive wants it gone. Nothing below ever
// feeds the queue the functors wait on, so the only way out of the wait is
// Done closing; a path that raised the flag without closing Done would park
// its worker until the test's bound fails it.

// wakeBound is how long a parked worker may take to return once the
// executive has asked it to. It is loose enough for -race on a loaded box;
// a missed close never returns at all.
const wakeBound = 2 * time.Second

// idleApp is a root nest of two single-stage alternatives, "a" (stage
// "sa") and "b" (stage "sb"), whose functors block only in DequeueUntil on
// an empty queue. parked counts entries into the wait and woke counts
// give-ups (returns without an item), per alternative. gate, when set,
// holds alternative a's first Make open until it is closed.
type idleApp struct {
	work   *queue.Queue[int]
	spec   *NestSpec
	gate   chan struct{}
	making atomic.Bool
	parked [2]atomic.Int32
	woke   [2]atomic.Int32
}

func newIdleApp(gated bool) *idleApp {
	a := &idleApp{work: queue.New[int](0)}
	if gated {
		a.gate = make(chan struct{})
	}
	a.spec = &NestSpec{Name: "app"}
	for i, name := range []string{"a", "b"} {
		i := i
		a.spec.Alts = append(a.spec.Alts, &AltSpec{
			Name:   name,
			Stages: []StageSpec{{Name: "s" + name, Type: PAR}},
			Make: func(item any) (*AltInstance, error) {
				if i == 0 && a.gate != nil && a.making.CompareAndSwap(false, true) {
					<-a.gate
				}
				return &AltInstance{Stages: []StageFns{{
					// No Suspending pre-check: even a slot born into a
					// suspending run must get out through the wait.
					Fn: func(w *Worker) Status {
						a.parked[i].Add(1)
						_, ok, err := a.work.DequeueUntil(w.Done())
						if err != nil {
							return Finished
						}
						if !ok {
							a.woke[i].Add(1)
							return Suspended
						}
						w.Begin()
						return w.End()
					},
				}}}, nil
			},
		})
	}
	return a
}

// startIdle starts the app on alternative a with the given extent.
func startIdle(t *testing.T, a *idleApp, extent int) *Exec {
	t.Helper()
	e, err := New(a.spec, WithContexts(8),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{extent}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

// within fails the test unless cond holds inside wakeBound.
func within(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(wakeBound)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no wakeup within %v: %s", wakeBound, what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stopAndCheck stops e, joins it within the bound, and checks that the
// pool is empty and no goroutine outlives the run.
func stopAndCheck(t *testing.T, e *Exec, before int) {
	t.Helper()
	e.Stop()
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(wakeBound):
		t.Fatalf("Wait did not return within %v of Stop: a parked worker missed its Done", wakeBound)
	}
	if busy := e.Contexts().Busy(); busy != 0 {
		t.Fatalf("pool busy = %d after Wait", busy)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before Start, %d after Wait", before, after)
	}
}

// Alternative switch: Exec.suspend raises the run's flag and then cancels
// every top-level slot, so the predecessor's parked workers leave while the
// successor's park.
func TestIdleWaitWakesOnAltSwitch(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newIdleApp(false)
	e := startIdle(t, a, 3)
	within(t, "alternative a's workers to park", func() bool { return a.parked[0].Load() == 3 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	within(t, "alternative a's parked workers to leave on the switch", func() bool { return a.woke[0].Load() == 3 })
	within(t, "alternative b's workers to park", func() bool { return a.parked[1].Load() == 2 })
	if a.woke[1].Load() != 0 {
		t.Fatalf("the successor's workers woke without a request: %d", a.woke[1].Load())
	}
	if got := e.Suspensions(); got != 1 {
		t.Fatalf("suspensions = %d, want 1", got)
	}
	stopAndCheck(t, e, before)
}

// In-place shrink: retireAndCancel wakes exactly the retired slots; the
// survivors stay parked.
func TestIdleWaitWakesOnShrink(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newIdleApp(false)
	e := startIdle(t, a, 4)
	within(t, "the workers to park", func() bool { return a.parked[0].Load() == 4 })
	e.SetConfig(&Config{Alt: 0, Extents: []int{1}})
	within(t, "the three retired workers to leave", func() bool { return a.woke[0].Load() == 3 })
	never(t, "a surviving worker woke on the shrink", func() bool { return a.woke[0].Load() > 3 })
	if got, s := e.Resizes(), e.Suspensions(); got != 1 || s != 0 {
		t.Fatalf("resizes = %d, suspensions = %d; want 1 and 0", got, s)
	}
	stopAndCheck(t, e, before)
}

// Stop: the current run's parked workers leave and Wait returns.
func TestIdleWaitWakesOnStop(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newIdleApp(false)
	e := startIdle(t, a, 3)
	within(t, "the workers to park", func() bool { return a.parked[0].Load() == 3 })
	stopAndCheck(t, e, before)
	if got := a.woke[0].Load(); got != 3 {
		t.Fatalf("woke = %d, want 3", got)
	}
}

// Slot spawned after suspension began: alternative a's Make is held open
// while the switch to b suspends its run, so a's slots are spawned into a
// run that is already suspending — cancelAll found no groups to cancel —
// and only the born-cancelled Done gets them out.
func TestIdleWaitBornCancelledSlotLeaves(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newIdleApp(true)
	e := startIdle(t, a, 3)
	within(t, "alternative a's Make to start", func() bool { return a.making.Load() })
	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	within(t, "alternative b's workers to park", func() bool { return a.parked[1].Load() == 2 })
	close(a.gate)
	within(t, "alternative a's late slots to leave", func() bool { return a.woke[0].Load() == 3 })
	if a.woke[1].Load() != 0 {
		t.Fatalf("the successor's workers woke without a request: %d", a.woke[1].Load())
	}
	stopAndCheck(t, e, before)
}

// Stall abandonment of a deadlined stage: the watchdog claims a slot whose
// functor waits in DequeueUntil(w.Done()) inside its CPU section (stallSpec's
// cooperative stall), retires it and closes Done, and the abandoned
// goroutine returns — abandoned slots are not joined by Wait, so the
// goroutine count is what proves it. The stage has one slot, so the
// replacement must be spawned before the woken functor's exit can close
// the group (which would end the stage with nothing left to serve).
func TestIdleWaitWakesOnStallAbandonment(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	spec, _ := stallSpec(
		StageSpec{Name: "worker", Type: PAR, Deadline: 10 * time.Millisecond, OnFailure: FailRestart},
		func() bool { return calls.Add(1) == 1 },
		true,
	)
	e, err := New(spec, WithContexts(2), WithInitialConfig(&Config{Alt: 0, Extents: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	within(t, "the watchdog to abandon the stalled slot", func() bool { return e.TaskStalls() >= 1 })
	within(t, "the replacement slot to make progress", func() bool { return calls.Load() > 10 })
	stopAndCheck(t, e, before)
}
