package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/queue"
)

// overlapApp is a root nest of two single-stage alternatives claiming items
// from one shared queue, instrumented for the overlap tests: Make and Fini
// calls are counted per alternative, and alternative 0's workers hold each
// item they claimed until the gate opens — a drain as long as the test needs
// it to be.
type overlapApp struct {
	work  *queue.Queue[int]
	gate  chan struct{}
	spec  *NestSpec
	made  [2]atomic.Int32
	fini  [2]atomic.Int32
	claim [2]atomic.Int32 // items claimed, per alternative
	done  atomic.Int32    // items completed

	mu     sync.Mutex
	events []EventKind
}

// newOverlapApp builds the app; stage names are "s0" and "s1", or "worker"
// for both when shared.
func newOverlapApp(shared bool) *overlapApp {
	a := &overlapApp{work: queue.New[int](0), gate: make(chan struct{})}
	a.spec = &NestSpec{Name: "app"}
	for i, name := range []string{"s0", "s1"} {
		i := i
		if shared {
			name = "worker"
		}
		a.spec.Alts = append(a.spec.Alts, &AltSpec{
			Name:   []string{"held", "free"}[i],
			Stages: []StageSpec{{Name: name, Type: PAR}},
			Make: func(item any) (*AltInstance, error) {
				a.made[i].Add(1)
				return &AltInstance{Stages: []StageFns{{
					Fn: func(w *Worker) Status {
						if w.Suspending() {
							return Suspended
						}
						_, ok, err := a.work.DequeueUntil(w.Done())
						if err != nil {
							return Finished
						}
						if !ok {
							return Suspended
						}
						a.claim[i].Add(1)
						if i == 0 {
							<-a.gate
						}
						w.Begin()
						st := w.End()
						a.done.Add(1)
						return st
					},
					Fini: func() { a.fini[i].Add(1) },
				}}}, nil
			},
		})
	}
	return a
}

func (a *overlapApp) observe(ev Event) {
	a.mu.Lock()
	a.events = append(a.events, ev.Kind)
	a.mu.Unlock()
}

// phases returns the suspend/resume/drained events seen so far, in order.
func (a *overlapApp) phases() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for _, k := range a.events {
		if k == EventSuspend || k == EventResume || k == EventDrained {
			out = append(out, k.String())
		}
	}
	return strings.Join(out, " ")
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// never asserts that cond stays false for a while: the thing a wait-first
// condition forbids must not merely be late.
func never(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		if cond() {
			t.Fatalf("%s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func startOverlapApp(t *testing.T, a *overlapApp, opts ...Option) *Exec {
	t.Helper()
	opts = append([]Option{WithContexts(4), WithTrace(a.observe),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{1}})}, opts...)
	e, err := New(a.spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSuccessorClaimsBeforePredecessorDrains pins that the overlap is real:
// with the predecessor's worker still inside the item it claimed — its Fini
// cannot have run — the successor is instantiated and serves items. Under a
// drain barrier the successor's claim below would never happen.
func TestSuccessorClaimsBeforePredecessorDrains(t *testing.T) {
	a := newOverlapApp(false)
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })

	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	a.work.Enqueue(1)
	a.work.Enqueue(2)
	eventually(t, "the successor to serve items behind the draining predecessor",
		func() bool { return a.done.Load() == 2 })
	if got := a.fini[0].Load(); got != 0 {
		t.Fatalf("predecessor's Fini ran %d times while its worker still held an item", got)
	}
	if got, want := a.phases(), "suspend resume"; got != want {
		t.Fatalf("phases with the predecessor still draining = %q, want %q", got, want)
	}
	if rep := e.Report().Nest("app"); rep.AltName != "free" || rep.Stage("s1").Workers != 2 {
		t.Fatalf("report during the overlap: alt %q, %d workers", rep.AltName, rep.Stage("s1").Workers)
	}

	close(a.gate)
	eventually(t, "the predecessor to drain", func() bool { return a.fini[0].Load() == 1 })
	a.work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := a.done.Load(); got != 3 {
		t.Fatalf("completed %d items, want 3", got)
	}
	if got, want := a.phases(), "suspend resume drained"; got != want {
		t.Fatalf("phases = %q, want %q", got, want)
	}
	if got := e.Suspensions(); got != 1 {
		t.Fatalf("suspensions = %d, want 1", got)
	}
	if busy := e.Contexts().Busy(); busy != 0 {
		t.Fatalf("pool busy = %d after Wait", busy)
	}
}

// TestDrainedEventCarriesInstanceAndDuration checks EventDrained's payload.
func TestDrainedEventCarriesInstanceAndDuration(t *testing.T) {
	a := newOverlapApp(false)
	var drained []Event
	var mu sync.Mutex
	e := startOverlapApp(t, a, WithTrace(func(ev Event) {
		if ev.Kind == EventDrained {
			mu.Lock()
			drained = append(drained, ev)
			mu.Unlock()
		}
	}))
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
	time.Sleep(10 * time.Millisecond)
	close(a.gate)
	a.work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(drained) != 1 {
		t.Fatalf("got %d drained events, want 1", len(drained))
	}
	if ev := drained[0]; ev.Nest != "app/held" || ev.Drain < 10*time.Millisecond || ev.Drain > 5*time.Second {
		t.Fatalf("drained event = nest %q drain %v, want app/held and ≥ 10ms", ev.Nest, ev.Drain)
	}
}

// TestSharedStageNameSerializesSwitch: alternatives with a stage name in
// common share a monitor key, so the successor waits for the drain.
func TestSharedStageNameSerializesSwitch(t *testing.T) {
	a := newOverlapApp(true)
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })

	e.SetConfig(&Config{Alt: 1, Extents: []int{2}})
	a.work.Enqueue(1)
	never(t, "successor instantiated while a predecessor sharing its stage name drains",
		func() bool { return a.made[1].Load() != 0 })
	close(a.gate)
	eventually(t, "the successor to serve", func() bool { return a.done.Load() == 2 })
	a.work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := a.phases(), "suspend drained resume"; got != want {
		t.Fatalf("phases = %q, want %q", got, want)
	}
}

// TestSameAlternativeNeverCoexists flips A→B→A inside one drain: B overlaps
// the draining A, but the second A waits for the first (its Make may reopen
// what the first instance is still draining), and by then B has drained
// too, so at most one run was draining at any time.
func TestSameAlternativeNeverCoexists(t *testing.T) {
	a := newOverlapApp(false)
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })

	e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
	eventually(t, "B to start behind the draining A", func() bool { return a.made[1].Load() == 1 })
	e.SetConfig(&Config{Alt: 0, Extents: []int{1}})
	never(t, "second instance of A made while the first still drains",
		func() bool { return a.made[0].Load() != 1 })
	if got := a.fini[1].Load(); got != 1 {
		t.Fatalf("B's Fini ran %d times; suspended, it has nothing to wait for", got)
	}
	close(a.gate)
	eventually(t, "the second A", func() bool { return a.made[0].Load() == 2 })
	if got := a.fini[0].Load(); got != 1 {
		t.Fatalf("second A made with the first's Fini count at %d", got)
	}
	a.work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.Suspensions(); got != 2 {
		t.Fatalf("suspensions = %d, want 2", got)
	}
	if got, want := a.phases(), "suspend resume suspend drained drained resume"; got != want {
		t.Fatalf("phases = %q, want %q", got, want)
	}
}

// TestSameAlternativeBackToBack is the same history with no pause between
// the flips: serve may not get to B at all before it is superseded, and then
// the second A is the direct successor of the first and must wait for it.
func TestSameAlternativeBackToBack(t *testing.T) {
	a := newOverlapApp(false)
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
	e.SetConfig(&Config{Alt: 0, Extents: []int{1}})
	never(t, "second instance of A made while the first still drains",
		func() bool { return a.made[0].Load() != 1 })
	close(a.gate)
	eventually(t, "the second A", func() bool { return a.made[0].Load() == 2 })
	a.work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.Suspensions(); got != 2 {
		t.Fatalf("suspensions = %d, want 2", got)
	}
}

// TestSupersededRunIsNeverInstantiated flips A→B→A→B inside one drain where
// nothing may overlap (shared stage name): the runs created for the middle
// two flips are suspended before serve gets to them and are skipped, every
// flip still counts as a suspension, and the final B is what runs.
func TestSupersededRunIsNeverInstantiated(t *testing.T) {
	a := newOverlapApp(true)
	e := startOverlapApp(t, a)
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	for _, alt := range []int{1, 0, 1} {
		e.SetConfig(&Config{Alt: alt, Extents: []int{1}})
	}
	close(a.gate)
	eventually(t, "B", func() bool { return a.made[1].Load() == 1 })
	a.work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if m0, m1 := a.made[0].Load(), a.made[1].Load(); m0 != 1 || m1 != 1 {
		t.Fatalf("instances made: A %d, B %d; want 1 and 1", m0, m1)
	}
	if got := e.Suspensions(); got != 3 {
		t.Fatalf("suspensions = %d, want one per flip (3)", got)
	}
}

// TestDrainTimeoutReachesOverlappedPredecessor: the drain watchdog judges
// each group against its own run, so a worker stuck in a predecessor that is
// no longer the current run is still abandoned once the drain timeout
// passes, and Stop/Wait do not hang on it.
func TestDrainTimeoutReachesOverlappedPredecessor(t *testing.T) {
	a := newOverlapApp(false)
	defer close(a.gate) // release the zombie at the end
	e := startOverlapApp(t, a, WithDrainTimeout(20*time.Millisecond), WithFailurePolicy(FailRestart))
	a.work.Enqueue(0)
	eventually(t, "the predecessor to claim an item", func() bool { return a.claim[0].Load() == 1 })
	e.SetConfig(&Config{Alt: 1, Extents: []int{1}})
	a.work.Enqueue(1)
	eventually(t, "the successor to serve", func() bool { return a.done.Load() == 1 })
	eventually(t, "the stuck predecessor worker to be abandoned", func() bool { return e.TaskStalls() == 1 })
	eventually(t, "the predecessor to count as drained", func() bool { return a.fini[0].Load() == 1 })
	if got := e.Report().Nest("app").Stage("s1").Workers; got != 1 {
		t.Fatalf("successor workers = %d after the predecessor's drain timed out, want 1", got)
	}
	e.Stop()
	if err := waitOrHang(t, e, "Wait hung behind a stuck worker of an overlapped predecessor"); err != nil {
		t.Fatal(err)
	}
}

func waitOrHang(t *testing.T, e *Exec, msg string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
		return nil
	}
}
