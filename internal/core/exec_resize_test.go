package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/platform"
	"dope/internal/queue"
)

// waitForWorkers polls the root stage's live worker gauge until it reaches
// want, and returns how long that took.
func waitForWorkers(t *testing.T, e *Exec, stage string, want int) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		if got := e.Report().Nest("app").Stage(stage).Workers; got == want {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			got := e.Report().Nest("app").Stage(stage).Workers
			t.Fatalf("stage %q workers = %d, want %d", stage, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRootExtentChangeResizesInPlace is the acceptance test for in-place
// stage resizing: an extent-only SetConfig on a running pipeline must be
// realized by growing/shrinking the stage's worker group — counted by
// Reconfigurations and Resizes, visible as EventResize — without a single
// suspension, and without losing work.
func TestRootExtentChangeResizesInPlace(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := doallSpec(work, &processed)
	type resizeEv struct {
		stage    string
		from, to int
	}
	var evMu sync.Mutex
	var resizeEvents []resizeEv
	e, err := New(spec, WithContexts(8),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{2}}),
		WithTrace(func(ev Event) {
			if ev.Kind == EventResize {
				evMu.Lock()
				resizeEvents = append(resizeEvents, resizeEv{ev.Stage, ev.FromExtent, ev.ToExtent})
				evMu.Unlock()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		work.Enqueue(i)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	waitForWorkers(t, e, "worker", 2)

	// Grow 2 → 6: fresh slots spawn while the original two keep iterating.
	before := e.Reconfigurations()
	e.SetConfig(&Config{Alt: 0, Extents: []int{6}})
	if e.Reconfigurations() != before+1 {
		t.Fatalf("reconfigurations = %d, want %d", e.Reconfigurations(), before+1)
	}
	waitForWorkers(t, e, "worker", 6)

	// Shrink 6 → 3: the three highest slots retire at their next iteration
	// boundary; the rest keep flowing.
	e.SetConfig(&Config{Alt: 0, Extents: []int{3}})
	waitForWorkers(t, e, "worker", 3)

	if got := e.Suspensions(); got != 0 {
		t.Fatalf("extent-only changes caused %d suspensions", got)
	}
	if got := e.Resizes(); got != 2 {
		t.Fatalf("resizes = %d, want 2", got)
	}

	for i := 50; i < 100; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if processed.Load() != 100 {
		t.Fatalf("processed = %d, want 100 (no lost or duplicated work)", processed.Load())
	}

	evMu.Lock()
	defer evMu.Unlock()
	if len(resizeEvents) != 2 {
		t.Fatalf("resize events = %+v, want grow and shrink", resizeEvents)
	}
	if resizeEvents[0] != (resizeEv{"worker", 2, 6}) {
		t.Fatalf("grow event = %+v", resizeEvents[0])
	}
	if resizeEvents[1] != (resizeEv{"worker", 6, 3}) {
		t.Fatalf("shrink event = %+v", resizeEvents[1])
	}

	st := e.Report().Nest("app").Stage("worker")
	if st.Workers != 0 {
		t.Fatalf("workers after finish = %d", st.Workers)
	}
	if st.Retired != 3 {
		t.Fatalf("retired = %d, want 3 (the shrink from 6 to 3)", st.Retired)
	}
	if st.Spawned != 6 {
		t.Fatalf("spawned = %d, want 6 (2 initial + 4 grown)", st.Spawned)
	}
	if st.Resizes != 2 {
		t.Fatalf("stage resizes = %d, want 2", st.Resizes)
	}
}

// TestConcurrentConfigInstallsAreSerialized races SetConfig callers against
// each other and against a ticking mechanism; run under -race this covers
// the previously racy load/compare/store install path. Every install must
// be counted exactly once (trace events and the counter agree) and
// extent-only changes must never suspend.
func TestConcurrentConfigInstallsAreSerialized(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := doallSpec(work, &processed)
	var reconfEvents atomic.Uint64
	e, err := New(spec, WithContexts(8),
		WithMechanism(&bumpMechanism{target: 7}),
		WithControlInterval(time.Millisecond),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{2}}),
		WithTrace(func(ev Event) {
			if ev.Kind == EventReconfigure {
				reconfEvents.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const installers, installs = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < installers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < installs; i++ {
				e.SetConfig(&Config{Alt: 0, Extents: []int{(g+i)%7 + 1}})
			}
		}(g)
	}
	const items = 300
	for i := 0; i < items; i++ {
		work.Enqueue(i)
	}
	wg.Wait()
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if processed.Load() != items {
		t.Fatalf("processed %d of %d under concurrent installs", processed.Load(), items)
	}
	if e.Suspensions() != 0 {
		t.Fatalf("extent-only installs caused %d suspensions", e.Suspensions())
	}
	if e.Reconfigurations() == 0 {
		t.Fatal("no install went through")
	}
	if got := reconfEvents.Load(); got != e.Reconfigurations() {
		t.Fatalf("reconfigure events = %d but counter = %d", got, e.Reconfigurations())
	}
	st := e.Report().Nest("app").Stage("worker")
	if st.Workers != 0 {
		t.Fatalf("workers after finish = %d", st.Workers)
	}
	if st.Spawned == 0 || st.Spawned < st.Retired {
		t.Fatalf("slot accounting inconsistent: spawned=%d retired=%d", st.Spawned, st.Retired)
	}
}

// TestVirtualClockDrivesControlLoop checks the control loop runs on the
// executive's clock, not wall time: with a VirtualClock, control ticks (and
// the mechanism's reconfigurations) happen exactly when the test advances
// the clock, and the resulting extent bumps are in-place resizes.
func TestVirtualClockDrivesControlLoop(t *testing.T) {
	clk := platform.NewVirtualClock(time.Unix(0, 0))
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := doallSpec(work, &processed)
	e, err := New(spec, WithContexts(8), WithClock(clk),
		WithMechanism(&bumpMechanism{target: 4}),
		WithControlInterval(10*time.Millisecond),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		work.Enqueue(i)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Without advances the virtual ticker never fires, so the mechanism
	// must stay silent no matter how much wall time passes.
	time.Sleep(50 * time.Millisecond)
	if got := e.Reconfigurations(); got != 0 {
		t.Fatalf("control loop ticked %d times without a clock advance", got)
	}
	// Each advance crosses one control deadline: extent 1 → 4 in 3 ticks.
	for tick := 0; tick < 3; tick++ {
		want := e.Reconfigurations() + 1
		clk.Advance(10 * time.Millisecond)
		deadline := time.Now().Add(2 * time.Second)
		for e.Reconfigurations() < want {
			if time.Now().After(deadline) {
				t.Fatalf("control tick %d never fired", tick+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := e.CurrentConfig().Extents[0]; got != 4 {
		t.Fatalf("extent = %d, want 4", got)
	}
	if e.Suspensions() != 0 {
		t.Fatalf("mechanism extent bumps caused %d suspensions", e.Suspensions())
	}
	if e.Resizes() != 3 {
		t.Fatalf("resizes = %d, want 3", e.Resizes())
	}
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if processed.Load() != 20 {
		t.Fatalf("processed = %d", processed.Load())
	}
}
