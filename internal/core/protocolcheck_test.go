package core

import (
	"strings"
	"testing"

	"dope/internal/monitor"
)

// misuseSpec is a one-stage nest whose functor is the (possibly deliberately
// broken) fn under test.
func misuseSpec(fn Functor) *NestSpec {
	return &NestSpec{Name: "app", Alts: []*AltSpec{{
		Name:   "only",
		Stages: []StageSpec{{Name: "s", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{Fn: fn}}}, nil
		},
	}}}
}

// runWithDetector runs fn under an armed detector and returns the run error.
func runWithDetector(t *testing.T, fn Functor) error {
	t.Helper()
	e, err := New(misuseSpec(fn), WithContexts(4), WithProtocolCheck())
	if err != nil {
		t.Fatal(err)
	}
	return e.Run()
}

func wantViolation(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("run succeeded, want protocol-violation error containing %q", frag)
	}
	if !strings.Contains(err.Error(), "protocol violation") || !strings.Contains(err.Error(), frag) {
		t.Fatalf("error = %q, want protocol violation containing %q", err, frag)
	}
}

func TestDetectorDoubleBegin(t *testing.T) {
	err := runWithDetector(t, func(w *Worker) Status {
		w.Begin() //dopevet:ignore suspendcheck deliberate misuse under test
		w.Begin() //dopevet:ignore beginend deliberate misuse: detector must catch the double Begin
		w.End()
		return Finished //dopevet:ignore beginend unreachable: the second Begin panics
	})
	wantViolation(t, err, "double Begin")
}

func TestDetectorEndWithoutBegin(t *testing.T) {
	err := runWithDetector(t, func(w *Worker) Status {
		w.End() //dopevet:ignore beginend,suspendcheck deliberate misuse: detector must catch the unmatched End
		return Finished
	})
	wantViolation(t, err, "without a matching Worker.Begin")
}

func TestDetectorRunNestWhileHolding(t *testing.T) {
	child := &NestSpec{Name: "inner", Alts: []*AltSpec{{
		Name:   "only",
		Stages: []StageSpec{{Name: "s", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status { return Finished },
			}}}, nil
		},
	}}}
	err := runWithDetector(t, func(w *Worker) Status {
		w.Begin()                      //dopevet:ignore suspendcheck deliberate misuse under test
		st, _ := w.RunNest(child, nil) //dopevet:ignore tokenhold deliberate misuse: detector must catch RunNest in the window
		_ = st
		w.End()
		return Finished
	})
	wantViolation(t, err, "RunNest while holding")
}

// TestDetectorCleanRun: a protocol-correct functor runs to completion with
// the detector armed.
func TestDetectorCleanRun(t *testing.T) {
	iters := 0
	err := runWithDetector(t, func(w *Worker) Status {
		if w.Begin() == Suspended {
			return Suspended
		}
		iters++
		if w.End() == Suspended {
			return Suspended
		}
		if iters < 10 {
			return Executing
		}
		return Finished
	})
	if err != nil {
		t.Fatalf("clean run failed under detector: %v", err)
	}
	if iters != 10 {
		t.Fatalf("iters = %d, want 10", iters)
	}
}

// TestDetectorInertWhenDisabled: the same misuse runs to completion without
// the option — the runtime stays tolerant unless the detector is armed.
func TestDetectorInertWhenDisabled(t *testing.T) {
	e, err := New(misuseSpec(func(w *Worker) Status {
		w.End() //dopevet:ignore beginend,suspendcheck deliberate misuse: inert without the detector
		return Finished
	}), WithContexts(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("undetected misuse must stay tolerated, got %v", err)
	}
}

// TestDetectorEnvVar: DOPE_DEBUG=1 arms the detector without the option.
func TestDetectorEnvVar(t *testing.T) {
	t.Setenv("DOPE_DEBUG", "1")
	e, err := New(misuseSpec(func(w *Worker) Status {
		w.End() //dopevet:ignore beginend,suspendcheck deliberate misuse under test
		return Finished
	}), WithContexts(4))
	if err != nil {
		t.Fatal(err)
	}
	wantViolation(t, e.Run(), "without a matching Worker.Begin")
}

// directWorker builds a bare Worker on e for sequence-level tests: not part
// of any run, so Suspending is always false. Its slot recorder is released
// when the test ends.
func directWorker(t *testing.T, e *Exec) *Worker {
	rec := e.mon.Stage(monitor.Key{Nest: "n", Stage: "s"}).NewSlotRecorder()
	t.Cleanup(rec.Release)
	return &Worker{exec: e, rec: rec}
}

// TestDetectorAllowsDrainSequence: Begin → work → End with no status
// consulted is the drain shape; the detector must accept it repeatedly, and
// must accept the head shape (Begin, End) in steady alternation.
func TestDetectorAllowsDrainSequence(t *testing.T) {
	e, err := New(misuseSpec(func(w *Worker) Status { return Finished }),
		WithContexts(2), WithProtocolCheck())
	if err != nil {
		t.Fatal(err)
	}
	w := directWorker(t, e)
	for i := 0; i < 3; i++ {
		w.Begin() //dopevet:ignore suspendcheck drain sequence under test
		w.End()
	}
}

func TestDetectorUnbalancedEndPanics(t *testing.T) {
	e, err := New(misuseSpec(func(w *Worker) Status { return Finished }),
		WithContexts(2), WithProtocolCheck())
	if err != nil {
		t.Fatal(err)
	}
	w := directWorker(t, e)
	w.Begin() //dopevet:ignore suspendcheck sequence under test
	w.End()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("second End did not panic under the detector")
		}
		if !strings.Contains(p.(string), "protocol violation") {
			t.Fatalf("panic = %v, want protocol violation", p)
		}
	}()
	w.End() //dopevet:ignore beginend deliberate second End
}
