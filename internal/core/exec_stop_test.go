package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serverSpec is a two-alternative nest whose stages never finish on their
// own: they iterate until suspended or stopped, like a server workload.
func serverSpec() *NestSpec {
	mk := func() (*AltInstance, error) {
		return &AltInstance{Stages: []StageFns{{
			Fn: func(w *Worker) Status {
				if w.Suspending() {
					return Suspended
				}
				runtime.Gosched()
				return Executing
			},
		}}}, nil
	}
	return &NestSpec{Name: "app", Alts: []*AltSpec{
		{
			Name:   "a",
			Stages: []StageSpec{{Name: "worker", Type: PAR}},
			Make:   func(item any) (*AltInstance, error) { return mk() },
		},
		{
			Name:   "b",
			Stages: []StageSpec{{Name: "worker", Type: PAR}},
			Make:   func(item any) (*AltInstance, error) { return mk() },
		},
	}}
}

// TestStopRacingRespawnTerminates is the regression test for the
// Stop/respawn race in serve(): a Stop landing after the drained run's
// suspension but before serve stored the fresh run used to suspend only the
// old run — the fresh one never observed it and Wait blocked forever. The
// window is a few instructions wide, so each round forces a suspension with
// an alternative switch, waits for the suspend flag to land, and then sweeps
// Stop across the respawn in ~25ns steps. With the re-check after the
// store, every round must terminate.
func TestStopRacingRespawnTerminates(t *testing.T) {
	start := time.Now()
	for i := 0; i < 5000 && time.Since(start) < 3*time.Second; i++ {
		e, err := New(serverSpec(), WithContexts(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		// Force a suspend→respawn cycle.
		go e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
		for e.Suspensions() == 0 {
			runtime.Gosched()
		}
		// The drain is completing; sweep Stop across the respawn window.
		for n := 0; n < i%512; n++ {
			_ = time.Now()
		}
		e.Stop()
		done := make(chan error, 1)
		go func() { done <- e.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: Wait returned %v", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: Wait hung — Stop lost against the respawn", i)
		}
	}
}

// TestResizeDuringDrainAdoptedAtRespawn covers the other reconfiguration
// window: an extent-only SetConfig arriving while the run is suspending
// finds no groups to resize (run.resize returns early), so the change must
// be adopted when the respawned run re-resolves its extents in runNest.
func TestResizeDuringDrainAdoptedAtRespawn(t *testing.T) {
	gate := make(chan struct{})
	spec := &NestSpec{Name: "app", Alts: []*AltSpec{
		{
			// Alternative "a" holds the drain open: its worker blocks on the
			// gate before acknowledging suspension, pinning the run in the
			// suspending state for as long as the test needs.
			Name:   "a",
			Stages: []StageSpec{{Name: "worker", Type: PAR}},
			Make: func(item any) (*AltInstance, error) {
				return &AltInstance{Stages: []StageFns{{
					Fn: func(w *Worker) Status {
						<-gate
						return Suspended
					},
				}}}, nil
			},
		},
		{
			Name:   "b",
			Stages: []StageSpec{{Name: "worker", Type: PAR}},
			Make: func(item any) (*AltInstance, error) {
				return &AltInstance{Stages: []StageFns{{
					Fn: func(w *Worker) Status {
						if w.Suspending() {
							return Suspended
						}
						time.Sleep(20 * time.Microsecond)
						return Executing
					},
				}}}, nil
			},
		},
	}}
	e, err := New(spec, WithContexts(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	waitForWorkers(t, e, "worker", 1)

	// Switch alternatives: the run starts suspending but cannot finish
	// draining until the gate opens.
	e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
	// Now grow the new alternative's stage while the old run is still
	// draining. There are no resizable groups yet, so this must not count
	// as an in-place resize — only update the stored configuration.
	e.SetConfig(&Config{Alt: 1, Extents: []int{4}})
	if got := e.Resizes(); got != 0 {
		t.Fatalf("resize applied to a draining run: resizes = %d", got)
	}

	close(gate) // let the drain complete; serve respawns under alt 1
	waitForWorkers(t, e, "worker", 4)
	if got := e.CurrentConfig(); got.Alt != 1 || got.Extents[0] != 4 {
		t.Fatalf("respawned config = %+v, want alt 1 extent 4", got)
	}
	if got := e.Resizes(); got != 0 {
		t.Fatalf("extent change during drain should be adopted at respawn, not resized: resizes = %d", got)
	}
	if got := e.Suspensions(); got != 1 {
		t.Fatalf("suspensions = %d, want 1", got)
	}
	e.Stop()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines waits for the goroutine count to come down to want (the
// last workers exit a moment after Wait returns) and returns the count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestStopDuringOverlapJoinsBothRuns: a Stop landing while a predecessor
// drains behind its successor must suspend the successor and join both
// before EventFinish and doneCh — Wait may not return with the predecessor's
// worker still inside its item — and leave the pool full and no goroutine
// behind.
func TestStopDuringOverlapJoinsBothRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newOverlapApp(false)
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	a.work.Enqueue(1)
	eventually(t, "the successor to serve", func() bool { return a.done.Load() == 1 })

	e.Stop()
	eventually(t, "the successor to drain", func() bool { return a.fini[1].Load() == 1 })
	never(t, "Wait returned with the predecessor still draining", func() bool {
		select {
		case <-e.Done():
			return true
		default:
			return false
		}
	})
	close(a.gate)
	if err := waitOrHang(t, e, "Wait hung after the predecessor drained"); err != nil {
		t.Fatal(err)
	}
	if f0, f1 := a.fini[0].Load(), a.fini[1].Load(); f0 != 1 || f1 != 1 {
		t.Fatalf("Fini counts after Wait: predecessor %d, successor %d; want 1 and 1", f0, f1)
	}
	if got, want := a.phases(), "suspend resume suspend drained drained"; got != want {
		t.Fatalf("phases = %q, want %q", got, want)
	}
	a.mu.Lock()
	last := a.events[len(a.events)-1]
	a.mu.Unlock()
	if last != EventFinish {
		t.Fatalf("last event = %v, want finish after both drains", last)
	}
	if busy := e.Contexts().Busy(); busy != 0 {
		t.Fatalf("pool busy = %d after Wait", busy)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before Start, %d after Wait", before, after)
	}
}

// TestFailStopInDrainingRunReachesWait: the predecessor's worker panics
// while its run drains behind the successor. The error must become the run
// error, the successor must be stopped and joined, and nothing may leak.
func TestFailStopInDrainingRunReachesWait(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newOverlapApp(false)
	inner := a.spec.Alts[0].Make
	a.spec.Alts[0].Make = func(item any) (*AltInstance, error) {
		inst, err := inner(item)
		fn := inst.Stages[0].Fn
		inst.Stages[0].Fn = func(w *Worker) Status {
			st := fn(w)
			if st == Suspended && a.claim[0].Load() > 0 {
				panic("boom while draining")
			}
			return st
		}
		return inst, err
	}
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	a.work.Enqueue(1)
	eventually(t, "the successor to serve", func() bool { return a.done.Load() == 1 })
	close(a.gate)
	err := waitOrHang(t, e, "Wait hung after a FailStop failure in the draining run")
	if err == nil || !strings.Contains(err.Error(), "boom while draining") || !strings.Contains(err.Error(), "app/s0") {
		t.Fatalf("Wait = %v, want the draining run's panic attributed to app/s0", err)
	}
	if f0, f1 := a.fini[0].Load(), a.fini[1].Load(); f0 != 1 || f1 != 1 {
		t.Fatalf("Fini counts after Wait: predecessor %d, successor %d; want 1 and 1", f0, f1)
	}
	if busy := e.Contexts().Busy(); busy != 0 {
		t.Fatalf("pool busy = %d after Wait", busy)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before Start, %d after Wait", before, after)
	}
}

// TestInstantiationFailureDuringOverlapJoinsPredecessor: the successor's
// Make fails while the predecessor drains. Wait must surface the error, and
// only after the predecessor has drained.
func TestInstantiationFailureDuringOverlapJoinsPredecessor(t *testing.T) {
	a := newOverlapApp(false)
	errBoom := errors.New("cannot build the successor")
	a.spec.Alts[1].Make = func(item any) (*AltInstance, error) {
		return nil, errBoom
	}
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
	never(t, "Wait returned with the predecessor still draining", func() bool {
		select {
		case <-e.Done():
			return true
		default:
			return false
		}
	})
	close(a.gate)
	err := waitOrHang(t, e, "Wait hung after an instantiation failure")
	if err == nil || !strings.Contains(err.Error(), errBoom.Error()) {
		t.Fatalf("Wait = %v, want the instantiation error", err)
	}
	if got := a.fini[0].Load(); got != 1 {
		t.Fatalf("predecessor's Fini ran %d times before Wait returned, want 1", got)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range a.events {
		if k == EventFinish {
			t.Fatalf("EventFinish after an instantiation failure: %v", a.events)
		}
	}
}
