package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/queue"
)

// stallSpec builds a one-stage PAR nest whose functor consults shouldStall
// on each invocation: a stalling invocation opens its CPU section and then
// blocks — in DequeueUntil(w.Done()) on a queue nothing feeds for
// cooperative stalls (the goroutine unblocks only when the watchdog
// abandons the slot and closes Done) or on the returned gate channel for
// hard stalls (the goroutine is truly stuck until the test closes the
// gate, modelling a task the runtime cannot reach).
func stallSpec(st StageSpec, shouldStall func() bool, cooperative bool) (*NestSpec, chan struct{}) {
	gate := make(chan struct{})
	idle := queue.New[int](0)
	mk := func() (*AltInstance, error) {
		return &AltInstance{Stages: []StageFns{{
			Fn: func(w *Worker) Status {
				if w.Begin() == Suspended {
					return Suspended
				}
				if shouldStall() {
					if cooperative {
						idle.DequeueUntil(w.Done()) //dopevet:ignore tokenhold stalling inside the window is what the test injects
					} else {
						<-gate //dopevet:ignore tokenhold stalling inside the window is what the test injects
					}
				} else {
					// A touch of real work keeps the window plausible and
					// stops healthy slots from hot-spinning the scheduler
					// into spurious deadline overruns under -race.
					//dopevet:ignore tokenhold simulated work stands in for a CPU-bound body
					time.Sleep(100 * time.Microsecond)
				}
				return w.End()
			},
		}}}, nil
	}
	spec := &NestSpec{Name: "app", Alts: []*AltSpec{
		{
			Name:   "a",
			Stages: []StageSpec{st},
			Make:   func(item any) (*AltInstance, error) { return mk() },
		},
		{
			Name:   "b",
			Stages: []StageSpec{st},
			Make:   func(item any) (*AltInstance, error) { return mk() },
		},
	}}
	return spec, gate
}

// waitForStuck waits until n workers are blocked inside their CPU section
// (holding a platform context): worker spawn (waitForWorkers) only proves
// the goroutine exists, not that its first Begin has landed, and a Stop
// that beats the first Begin drains cleanly with nothing to stall.
func waitForStuck(t *testing.T, e *Exec, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Contexts().Busy() < n {
		if time.Now().After(deadline) {
			t.Fatalf("busy contexts = %d, want >= %d", e.Contexts().Busy(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStallFailStopReportsStack: under FailStop a deadline overrun must
// surface as the run error, carrying the stalled stage's key and a
// goroutine dump, within a couple of deadlines rather than hanging Wait.
func TestStallFailStopReportsStack(t *testing.T) {
	var calls atomic.Int64
	spec, _ := stallSpec(
		StageSpec{Name: "worker", Type: PAR, Deadline: 20 * time.Millisecond, OnFailure: FailStop},
		func() bool { return calls.Add(1) == 1 },
		true,
	)
	e, err := New(spec, WithContexts(2))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait returned nil, want stall error")
		}
		for _, want := range []string{"app/worker", "stalled", "goroutine"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error missing %q:\n%.400s", want, err.Error())
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung on a stalled fail-stop task")
	}
	// "Within 2× the deadline" in spirit; the bound here is loose enough
	// for a loaded CI box but still catches a watchdog that never fires.
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("stall detection took %v", el)
	}
	if e.TaskStalls() == 0 {
		t.Fatal("TaskStalls = 0")
	}
}

// TestStallRestartKeepsRunning: under FailRestart the watchdog abandons the
// stalled slot, respawns a replacement, and the application keeps making
// progress; Stop and Wait still work.
func TestStallRestartKeepsRunning(t *testing.T) {
	var calls atomic.Int64
	spec, _ := stallSpec(
		StageSpec{Name: "worker", Type: PAR, Deadline: 10 * time.Millisecond, OnFailure: FailRestart},
		func() bool { return calls.Add(1) == 3 },
		true,
	)
	e, err := New(spec, WithContexts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the stall to be detected and then for fresh iterations to
	// prove the replacement slot works.
	deadline := time.Now().Add(5 * time.Second)
	for e.TaskStalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never detected the stall")
		}
		time.Sleep(time.Millisecond)
	}
	after := e.Report().Nest("app").Stage("worker").Iterations
	for {
		if it := e.Report().Nest("app").Stage("worker").Iterations; it > after+10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress after the stall was abandoned")
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	rep := e.Report().Nest("app").Stage("worker")
	if rep.Stalls == 0 {
		t.Fatal("report shows no stalls")
	}
}

// TestStallDegradeShrinksExtent: under FailDegrade a stalled slot is
// abandoned and the stage's extent shrinks by one in the live
// configuration, exactly like a panicking slot under the same policy.
func TestStallDegradeShrinksExtent(t *testing.T) {
	var calls atomic.Int64
	// The deadline is generous relative to the functor's ~100µs windows so
	// scheduler hiccups under -race cannot manufacture a second stall — the
	// test asserts exactly one degrade.
	spec, _ := stallSpec(
		StageSpec{Name: "worker", Type: PAR, Deadline: 100 * time.Millisecond, OnFailure: FailDegrade},
		func() bool { return calls.Add(1) == 5 },
		true,
	)
	e, err := New(spec, WithContexts(4), WithInitialConfig(&Config{Extents: []int{3}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.TaskStalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never detected the stall")
		}
		time.Sleep(time.Millisecond)
	}
	for e.CurrentConfig().Extents[0] != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("extent = %d, want 2 after degrade", e.CurrentConfig().Extents[0])
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestDrainTimeoutUnblocksStop is the headline robustness guarantee: a task
// that never returns — it ignores Done, Suspending, everything — no longer
// hangs Stop/Wait when a drain timeout is configured. The slot is abandoned
// (its goroutine leaks until the test releases it) and Wait returns.
func TestDrainTimeoutUnblocksStop(t *testing.T) {
	spec, gate := stallSpec(
		StageSpec{Name: "worker", Type: PAR, OnFailure: FailRestart},
		func() bool { return true },
		false, // hard stall: blocks on the gate, not on Done
	)
	defer close(gate)
	e, err := New(spec, WithContexts(2), WithDrainTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	waitForStuck(t, e, 1)
	e.Stop()
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: drain timeout did not fire")
	}
	rep := e.Report().Nest("app").Stage("worker")
	if rep.StallsDuringDrain == 0 {
		t.Fatal("StallsDuringDrain = 0, want >= 1")
	}
	if rep.Zombies == 0 {
		t.Fatal("Zombies = 0, want the abandoned slot on the gauge")
	}
}

// TestDrainTimeoutUnblocksReconfiguration: the same guarantee for a live
// reconfiguration — an alternative switch whose drain hangs on a stuck task
// completes after the drain timeout and the new alternative runs.
func TestDrainTimeoutUnblocksReconfiguration(t *testing.T) {
	var stuck atomic.Bool
	stuck.Store(true)
	spec, gate := stallSpec(
		StageSpec{Name: "worker", Type: PAR, OnFailure: FailRestart},
		func() bool { return stuck.Load() },
		false,
	)
	defer close(gate)
	e, err := New(spec, WithContexts(2), WithDrainTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	waitForStuck(t, e, 1)
	stuck.Store(false) // only the already-running invocation stays stuck
	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	deadline := time.Now().Add(5 * time.Second)
	for e.Report().Nest("app").AltIndex != 1 || e.Report().Nest("app").Stage("worker").Workers != 2 {
		if time.Now().After(deadline) {
			rep := e.Report().Nest("app")
			t.Fatalf("respawn never completed: alt=%d workers=%d",
				rep.AltIndex, rep.Stage("worker").Workers)
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestZombieLateEndAccounting pins the generation/fence semantics of an
// abandoned slot with the platform pool at its tightest (one context): the
// watchdog must reclaim the stalled slot's token so the replacement can
// run, and the zombie's late End — racing live traffic under -race — must
// neither double-release the token (platform.Contexts panics on overflow)
// nor feed the monitors a phantom iteration.
func TestZombieLateEndAccounting(t *testing.T) {
	hold := make(chan struct{})
	var calls atomic.Int64
	spec, _ := stallSpec(
		StageSpec{Name: "worker", Type: PAR, Deadline: 15 * time.Millisecond, OnFailure: FailRestart},
		func() bool { return false }, true,
	)
	// Replace the functor with one whose first invocation hard-blocks on
	// hold inside its CPU section.
	mk := spec.Alts[0].Make
	spec.Alts[0].Make = func(item any) (*AltInstance, error) {
		inst, err := mk(item)
		if err != nil {
			return nil, err
		}
		inst.Stages[0].Fn = func(w *Worker) Status {
			if w.Begin() == Suspended {
				return Suspended
			}
			if calls.Add(1) == 1 {
				//dopevet:ignore tokenhold the test wedges a worker on purpose to exercise the watchdog
				<-hold // stuck holding the only context
			}
			return w.End()
		}
		return inst, nil
	}
	e, err := New(spec, WithContexts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// The replacement slot can only iterate if the watchdog reclaimed the
	// zombie's token.
	deadline := time.Now().Add(5 * time.Second)
	for e.TaskStalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall never detected")
		}
		time.Sleep(time.Millisecond)
	}
	base := e.Report().Nest("app").Stage("worker").Iterations
	for e.Report().Nest("app").Stage("worker").Iterations <= base+20 {
		if time.Now().After(deadline) {
			t.Fatal("replacement slot made no progress: token not reclaimed")
		}
		time.Sleep(time.Millisecond)
	}

	// Release the zombie mid-traffic: its late End races live Begin/End
	// pairs on the same group and must be a no-op for tokens and monitors.
	iterBefore := e.Report().Nest("app").Stage("worker").Iterations
	close(hold)
	for e.Report().Nest("app").Stage("worker").Zombies != 0 {
		if time.Now().After(deadline) {
			t.Fatal("zombie never exited after release")
		}
		time.Sleep(time.Millisecond)
	}
	if it := e.Report().Nest("app").Stage("worker").Iterations; it < iterBefore {
		t.Fatalf("iterations went backwards: %d -> %d", iterBefore, it)
	}
	e.Stop()
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if busy := e.Contexts().Busy(); busy != 0 {
		t.Fatalf("busy contexts = %d after Wait, token accounting corrupted", busy)
	}
}

// TestDrainTimeoutRacingStop sweeps a concurrent Stop across the
// drain-timeout escalation window: whichever side abandons the stuck slot
// first, Wait must return and the accounting must settle exactly once.
func TestDrainTimeoutRacingStop(t *testing.T) {
	start := time.Now()
	for i := 0; i < 200 && time.Since(start) < 3*time.Second; i++ {
		spec, gate := stallSpec(
			StageSpec{Name: "worker", Type: PAR, OnFailure: FailRestart},
			func() bool { return true },
			false,
		)
		e, err := New(spec, WithContexts(2),
			WithDrainTimeout(time.Duration(1+i%5)*time.Millisecond),
			WithStallCheckInterval(500*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		// Force a suspension via an alt switch, then race Stop against the
		// expiring drain timeout.
		go e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
		for n := 0; n < i%64; n++ {
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
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Wait hung", i)
		}
		close(gate)
	}
}
