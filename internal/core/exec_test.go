package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/queue"
)

// spinFor burns CPU for roughly d without sleeping, so Begin/End sections
// hold their context like real work.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// doallSpec is a root nest with one PAR stage consuming n work items from a
// fresh queue per instantiation... the queue is external so respawns resume.
func doallSpec(work *queue.Queue[int], processed *atomic.Int64) *NestSpec {
	return &NestSpec{Name: "app", Alts: []*AltSpec{{
		Name:   "doall",
		Stages: []StageSpec{{Name: "worker", Type: PAR}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					if w.Suspending() {
						return Suspended
					}
					v, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
					if errors.Is(err, queue.ErrClosed) {
						return Finished
					}
					if !ok {
						return Suspended
					}
					// The item is already claimed: even if Begin reports
					// Suspended, process it so no work is lost.
					w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
					_ = v
					processed.Add(1)
					w.End()
					return Executing
				},
				Load: func() float64 { return float64(work.Len()) },
			}}}, nil
		},
	}}}
}

func fillAndClose(q *queue.Queue[int], n int) {
	for i := 0; i < n; i++ {
		q.Enqueue(i)
	}
	q.Close()
}

func TestDOALLRunsToCompletion(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := doallSpec(work, &processed)
	cfg := &Config{Alt: 0, Extents: []int{4}}
	e, err := New(spec, WithContexts(8), WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fillAndClose(work, 100)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if processed.Load() != 100 {
		t.Fatalf("processed = %d", processed.Load())
	}
}

func TestStartTwiceFails(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	e, err := New(doallSpec(work, &processed))
	if err != nil {
		t.Fatal(err)
	}
	work.Close()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
	e.Wait()
}

func TestInvalidSpecRejected(t *testing.T) {
	if _, err := New(&NestSpec{Name: ""}); err == nil { //dopevet:ignore nestspec deliberately invalid spec under test
		t.Fatal("invalid spec accepted")
	}
}

func TestPipelineDrainsThroughFini(t *testing.T) {
	// read -> q1 -> transform -> q2 -> write, with Fini propagating closure
	// downstream exactly like the paper's sentinel NULL tokens.
	const items = 50
	var wrote atomic.Int64
	spec := &NestSpec{Name: "pipe", Alts: []*AltSpec{{
		Name: "pipeline",
		Stages: []StageSpec{
			{Name: "read", Type: SEQ},
			{Name: "transform", Type: PAR},
			{Name: "write", Type: SEQ},
		},
		Make: func(item any) (*AltInstance, error) {
			q1 := queue.New[int](8)
			q2 := queue.New[int](8)
			next := 0
			return &AltInstance{Stages: []StageFns{
				{
					Fn: func(w *Worker) Status {
						if next >= items {
							return Finished
						}
						w.Begin() //dopevet:ignore suspendcheck finite test head: exits via its own counter
						v := next
						next++
						w.End()
						q1.Enqueue(v)
						return Executing
					},
					Fini: q1.Close,
				},
				{
					Fn: func(w *Worker) Status {
						v, err := q1.Dequeue()
						if err != nil {
							return Finished
						}
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						v *= 2
						w.End()
						q2.Enqueue(v)
						return Executing
					},
					Load: func() float64 { return float64(q1.Len()) },
					Fini: q2.Close,
				},
				{
					Fn: func(w *Worker) Status {
						_, err := q2.Dequeue()
						if err != nil {
							return Finished
						}
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						wrote.Add(1)
						w.End()
						return Executing
					},
					Load: func() float64 { return float64(q2.Len()) },
				},
			}}, nil
		},
	}}}
	cfg := &Config{Alt: 0, Extents: []int{1, 3, 1}}
	e, err := New(spec, WithContexts(8), WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wrote.Load() != items {
		t.Fatalf("wrote = %d, want %d", wrote.Load(), items)
	}
}

// nestedSpec: outer workers pull items and run a private inner pipeline per
// item (the transcode structure).
func nestedSpec(work *queue.Queue[int], innerDone *atomic.Int64) *NestSpec {
	inner := &NestSpec{Name: "video", Alts: []*AltSpec{
		{
			Name: "pipeline",
			Stages: []StageSpec{
				{Name: "produce", Type: SEQ},
				{Name: "consume", Type: PAR},
			},
			Make: func(item any) (*AltInstance, error) {
				frames := queue.New[int](4)
				n := 0
				return &AltInstance{Stages: []StageFns{
					{
						Fn: func(w *Worker) Status {
							if n >= 5 {
								return Finished
							}
							w.Begin() //dopevet:ignore suspendcheck finite test head: exits via its own counter
							n++
							w.End()
							frames.Enqueue(n)
							return Executing
						},
						Fini: frames.Close,
					},
					{
						Fn: func(w *Worker) Status {
							_, err := frames.Dequeue()
							if err != nil {
								return Finished
							}
							w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
							innerDone.Add(1)
							w.End()
							return Executing
						},
					},
				}}, nil
			},
		},
		{
			Name:   "fused",
			Stages: []StageSpec{{Name: "all", Type: SEQ}},
			Make: func(item any) (*AltInstance, error) {
				n := 0
				return &AltInstance{Stages: []StageFns{{
					Fn: func(w *Worker) Status {
						if n >= 5 {
							return Finished
						}
						w.Begin() //dopevet:ignore suspendcheck finite test loop: exits via its own counter
						n++
						innerDone.Add(1)
						w.End()
						return Executing
					},
				}}}, nil
			},
		},
	}}
	return &NestSpec{Name: "app", Alts: []*AltSpec{{
		Name:   "outer",
		Stages: []StageSpec{{Name: "transcode", Type: PAR, Nest: inner}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					v, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
					if errors.Is(err, queue.ErrClosed) {
						return Finished
					}
					if !ok {
						return Suspended
					}
					st, err := w.RunNest(inner, v)
					if err != nil {
						return Finished
					}
					if st == Suspended {
						return Suspended
					}
					return Executing
				},
				Load: func() float64 { return float64(work.Len()) },
			}}}, nil
		},
	}}}
}

func TestNestedLoopsRun(t *testing.T) {
	work := queue.New[int](0)
	var innerDone atomic.Int64
	spec := nestedSpec(work, &innerDone)
	cfg := &Config{Alt: 0, Extents: []int{3}}
	inner := &Config{Alt: 0, Extents: []int{1, 2}}
	cfg.SetChild("video", inner)
	e, err := New(spec, WithContexts(12), WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fillAndClose(work, 20)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if innerDone.Load() != 20*5 {
		t.Fatalf("inner iterations = %d, want 100", innerDone.Load())
	}
}

func TestNestedAltSwitchWithoutSuspension(t *testing.T) {
	// Switching the INNER alternative must not suspend the outer run: the
	// next instantiation simply picks the new alternative.
	work := queue.New[int](0)
	var innerDone atomic.Int64
	spec := nestedSpec(work, &innerDone)
	cfg := &Config{Alt: 0, Extents: []int{2}}
	cfg.SetChild("video", &Config{Alt: 0, Extents: []int{1, 1}})
	e, err := New(spec, WithContexts(8), WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		work.Enqueue(i)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Flip inner to fused mid-run.
	nc := e.CurrentConfig()
	nc.Child("video").Alt = 1
	nc.Child("video").Extents = []int{1}
	e.SetConfig(nc)
	if got := e.Suspensions(); got != 0 {
		t.Fatalf("inner-only change caused %d suspensions", got)
	}
	for i := 10; i < 20; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if innerDone.Load() != 100 {
		t.Fatalf("inner iterations = %d", innerDone.Load())
	}
}

// twoAltDoallSpec is doallSpec with a second, behaviorally identical
// alternative, so tests can trigger the one root-level change that still
// requires the full suspension protocol: an alternative switch.
func twoAltDoallSpec(work *queue.Queue[int], processed *atomic.Int64) *NestSpec {
	mk := func(item any) (*AltInstance, error) {
		return &AltInstance{Stages: []StageFns{{
			Fn: func(w *Worker) Status {
				if w.Suspending() {
					return Suspended
				}
				v, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
				if errors.Is(err, queue.ErrClosed) {
					return Finished
				}
				if !ok {
					return Suspended
				}
				w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
				_ = v
				processed.Add(1)
				w.End()
				return Executing
			},
			Load: func() float64 { return float64(work.Len()) },
		}}}, nil
	}
	return &NestSpec{Name: "app", Alts: []*AltSpec{
		{Name: "doall-a", Stages: []StageSpec{{Name: "worker", Type: PAR}}, Make: mk},
		{Name: "doall-b", Stages: []StageSpec{{Name: "worker", Type: PAR}}, Make: mk},
	}}
}

func TestRootAltSwitchSuspendsAndResumes(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := twoAltDoallSpec(work, &processed)
	e, err := New(spec, WithContexts(8),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{2}}))
	if err != nil {
		t.Fatal(err)
	}
	var events []EventKind
	var evMu sync.Mutex
	e.trace = func(ev Event) {
		evMu.Lock()
		events = append(events, ev.Kind)
		evMu.Unlock()
	}
	for i := 0; i < 50; i++ {
		work.Enqueue(i)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Switch the root alternative: the stage set changes, so the full
	// suspend→drain→respawn protocol applies.
	e.SetConfig(&Config{Alt: 1, Extents: []int{6}})
	deadline := time.Now().Add(2 * time.Second)
	for e.Suspensions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Suspensions() == 0 {
		t.Fatal("root alternative switch did not suspend")
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
	var sawReconf, sawSuspend, sawResume, sawFinish bool
	for _, k := range events {
		switch k {
		case EventReconfigure:
			sawReconf = true
		case EventSuspend:
			sawSuspend = true
		case EventResume:
			sawResume = true
		case EventFinish:
			sawFinish = true
		}
	}
	if !sawReconf || !sawSuspend || !sawResume || !sawFinish {
		t.Fatalf("event sequence incomplete: %v", events)
	}
	if got := e.CurrentConfig(); got.Alt != 1 || got.Extents[0] != 6 {
		t.Fatalf("final config = %+v", got)
	}
}

// bumpMechanism grows the root extent by one on every tick up to a target.
type bumpMechanism struct {
	target int
}

func (m *bumpMechanism) Name() string { return "bump" }

func (m *bumpMechanism) Reconfigure(r *Report) *Config {
	cfg := r.Config
	if cfg.Extents[0] < m.target {
		cfg.Extents[0]++
		return cfg
	}
	return nil
}

func TestMechanismDrivesReconfiguration(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := doallSpec(work, &processed)
	e, err := New(spec, WithContexts(8),
		WithMechanism(&bumpMechanism{target: 4}),
		WithControlInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		work.Enqueue(i)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for e.CurrentConfig().Extents[0] < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.CurrentConfig().Extents[0]; got != 4 {
		t.Fatalf("mechanism never reached target extent: %d", got)
	}
	work.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if processed.Load() != 30 {
		t.Fatalf("processed = %d", processed.Load())
	}
	if e.Reconfigurations() < 3 {
		t.Fatalf("reconfigurations = %d", e.Reconfigurations())
	}
}

func TestMakeErrorPropagates(t *testing.T) {
	spec := &NestSpec{Name: "bad", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "s", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return nil, errors.New("boom")
		},
	}}}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestStageCountMismatchFails(t *testing.T) {
	spec := &NestSpec{Name: "bad", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "s1", Type: SEQ}, {Name: "s2", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{Fn: func(w *Worker) Status { return Finished }}}}, nil
		},
	}}}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "built 1 stages") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingFunctorFails(t *testing.T) {
	spec := &NestSpec{Name: "bad", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "s", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{}}}, nil //dopevet:ignore nestspec deliberately invalid instance under test
		},
	}}}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "no functor") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnbalancedBeginIsAutoClosed(t *testing.T) {
	n := 0
	spec := &NestSpec{Name: "leak", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "s", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					if n >= 10 {
						return Finished
					}
					n++
					w.Begin() //dopevet:ignore beginend,suspendcheck deliberately leaked window: exercises the balancer auto-close
					return Executing
				},
			}}}, nil
		},
	}}}
	e, err := New(spec, WithContexts(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("context leaked: run never finished")
	}
	if e.Contexts().Busy() != 0 {
		t.Fatalf("busy contexts after run = %d", e.Contexts().Busy())
	}
}

func TestStopTerminates(t *testing.T) {
	work := queue.New[int](0) // never closed, never fed: workers block
	var processed atomic.Int64
	e, err := New(doallSpec(work, &processed), WithContexts(4),
		WithInitialConfig(&Config{Alt: 0, Extents: []int{2}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	e.Stop()
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate the run")
	}
}

func TestReportStructure(t *testing.T) {
	work := queue.New[int](0)
	var innerDone atomic.Int64
	spec := nestedSpec(work, &innerDone)
	cfg := &Config{Alt: 0, Extents: []int{2}}
	cfg.SetChild("video", &Config{Alt: 0, Extents: []int{1, 3}})
	e, err := New(spec, WithContexts(8), WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fillAndClose(work, 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.Root == nil || rep.Root.Path != "app" {
		t.Fatalf("root path = %v", rep.Root)
	}
	if rep.Contexts != 8 {
		t.Fatalf("contexts = %d", rep.Contexts)
	}
	child := rep.Nest("app/video")
	if child == nil {
		t.Fatal("missing nested report")
	}
	if child.AltName != "pipeline" || len(child.Stages) != 2 {
		t.Fatalf("child report = %+v", child)
	}
	consume := child.Stage("consume")
	if consume == nil || consume.Iterations == 0 {
		t.Fatalf("consume stage unmonitored: %+v", consume)
	}
	if consume.Extent != 3 {
		t.Fatalf("consume extent = %d", consume.Extent)
	}
	tc := rep.Nest("app").Stage("transcode")
	if tc == nil || !tc.HasNest {
		t.Fatal("transcode stage should declare a nest")
	}
	if rep.Nest("app/zzz") != nil || rep.Nest("zzz") != nil {
		t.Fatal("bogus paths should return nil")
	}
	if rep.Nest("app").Stage("zzz") != nil {
		t.Fatal("bogus stage should return nil")
	}
}

func TestExecTimeIsMonitored(t *testing.T) {
	work := queue.New[int](0)
	spec := &NestSpec{Name: "app", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "spin", Type: PAR}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					_, err := work.Dequeue()
					if err != nil {
						return Finished
					}
					w.Begin() //dopevet:ignore suspendcheck test functor drains a pre-filled queue; exit via queue empty
					spinFor(2 * time.Millisecond)
					w.End()
					return Executing
				},
			}}}, nil
		},
	}}}
	e, err := New(spec, WithContexts(2))
	if err != nil {
		t.Fatal(err)
	}
	fillAndClose(work, 10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Report().Nest("app").Stage("spin")
	if st.ExecTime < 0.0015 || st.ExecTime > 0.05 {
		t.Fatalf("exec time = %v, want ~0.002", st.ExecTime)
	}
	if st.Iterations != 10 {
		t.Fatalf("iterations = %d", st.Iterations)
	}
}

func TestFeaturesRegisteredByDefault(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	e, err := New(doallSpec(work, &processed), WithContexts(6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Features().Value("HardwareContexts")
	if err != nil || v != 6 {
		t.Fatalf("HardwareContexts = %v, %v", v, err)
	}
	if _, err := e.Features().Value("BusyContexts"); err != nil {
		t.Fatal(err)
	}
	work.Close()
	e.Run()
}

func TestSetConfigNilAndEqualNoOp(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	e, err := New(doallSpec(work, &processed))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Reconfigurations()
	e.SetConfig(nil)
	e.SetConfig(e.CurrentConfig())
	if e.Reconfigurations() != before {
		t.Fatal("no-op SetConfig counted as reconfiguration")
	}
	work.Close()
	e.Run()
}

func TestWorkerPanicFailsRunGracefully(t *testing.T) {
	work := queue.New[int](0)
	n := 0
	spec := &NestSpec{Name: "panicky", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "s", Type: PAR}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					if w.Suspending() {
						return Suspended
					}
					_, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
					if errors.Is(err, queue.ErrClosed) {
						return Finished
					}
					if !ok {
						return Suspended
					}
					w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
					n++
					if n == 3 {
						panic("kaboom")
					}
					w.End()
					return Executing
				},
			}}}, nil
		},
	}}}
	e, err := New(spec, WithContexts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		work.Enqueue(i)
	}
	work.Close()
	err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
	if e.Contexts().Busy() != 0 {
		t.Fatalf("context leaked after panic: busy = %d", e.Contexts().Busy())
	}
}

func TestWorkerPanicEmitsErrorEvent(t *testing.T) {
	var sawError atomic.Bool
	spec := &NestSpec{Name: "panicky", Alts: []*AltSpec{{
		Name:   "a",
		Stages: []StageSpec{{Name: "s", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status { panic("boom") },
			}}}, nil
		},
	}}}
	e, err := New(spec, WithTrace(func(ev Event) {
		if ev.Kind == EventError {
			sawError.Store(true)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("expected error")
	}
	if !sawError.Load() {
		t.Fatal("no EventError emitted")
	}
}
