package mechanism

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
	"dope/internal/queue"
)

// altReport fabricates a Report for pipelineSpec running alternative alt at
// the given extents; PAR stages take exec seconds, SEQ stages a quarter.
func altReport(alt int, extents []int, exec float64) *core.Report {
	spec := pipelineSpec()
	as := spec.Alts[alt]
	stages := make([]core.StageReport, len(as.Stages))
	for i, st := range as.Stages {
		e := exec
		if st.Type == core.SEQ {
			e = exec / 4
		}
		stages[i] = core.StageReport{
			Name: st.Name, Type: st.Type, Extent: extents[i],
			ExecTime: e, MeanExecTime: e, Iterations: 100,
		}
	}
	return &core.Report{
		Contexts: 8,
		Features: platform.NewFeatures(),
		Config:   &core.Config{Alt: alt, Extents: append([]int(nil), extents...)},
		Root: &core.NestReport{
			Name: spec.Name, Path: spec.Name, Spec: spec,
			AltIndex: alt, AltName: as.Name, Stages: stages,
		},
	}
}

// TestStageMemoryForgottenOnAltSwitch is the report-level regression test
// for the stale-memory bug: a mechanism learns extent vectors on one
// alternative, the alternative changes under it (an administrator's
// SetConfig), and the rate drops so every revert-to-remembered path fires.
// Whatever it proposes next must fit the stage set it was shown. Before
// the fix TPC panicked in clampToSpec installing bestExtents of the old
// length, and FDP and EDP reverted to a lastExtents of the old length. The
// switch point sweeps every tick of the learning phase so each controller
// state (ramp, explore, stable; pending, stalled) is crossed.
func TestStageMemoryForgottenOnAltSwitch(t *testing.T) {
	mechs := map[string]func() core.Mechanism{
		"TPC": func() core.Mechanism { return &TPC{Threads: 8, ExploreSteps: 1, SettleTicks: 1} },
		"FDP": func() core.Mechanism { return &FDP{Threads: 8} },
		"EDP": func() core.Mechanism { return &EDP{Threads: 8, SettleTicks: 1} },
	}
	drive := func(t *testing.T, m core.Mechanism, alt, ticks int, exec float64) {
		n := len(pipelineSpec().Alts[alt].Stages)
		extents := make([]int, n)
		for i := range extents {
			extents[i] = 1
		}
		for tick := 0; tick < ticks; tick++ {
			cfg := m.Reconfigure(altReport(alt, extents, exec))
			if cfg == nil {
				continue
			}
			if cfg.Alt != alt || len(cfg.Extents) != n {
				t.Fatalf("tick %d on alt %d (%d stages): proposed alt %d extents %v",
					tick, alt, n, cfg.Alt, cfg.Extents)
			}
			extents = cfg.Extents
		}
	}
	for name, mk := range mechs {
		for _, dir := range [][2]int{{0, 1}, {1, 0}} {
			for learn := 1; learn <= 24; learn++ {
				t.Run(fmt.Sprintf("%s/%d-to-%d/learn%d", name, dir[0], dir[1], learn), func(t *testing.T) {
					m := mk()
					drive(t, m, dir[0], learn, 0.001)
					drive(t, m, dir[1], 40, 0.004)
				})
			}
		}
	}
}

// watchedTPC lets a test follow a live TPC without racing the control
// loop: the phase after each decision, and how many decisions were made.
type watchedTPC struct {
	*TPC
	explore atomic.Bool
	calls   atomic.Int64
}

func (m *watchedTPC) Reconfigure(r *core.Report) *core.Config {
	cfg := m.TPC.Reconfigure(r)
	m.explore.Store(m.Phase() == "explore")
	m.calls.Add(1)
	return cfg
}

// TestTPCSurvivesLiveAltFlips flips the root alternative 0 ↔ 1 with
// SetConfig under a running executive whose mechanism is TPC, as an
// administrator's PUT /config does. The first flip lands while TPC is
// exploring around a best configuration learned on the one-stage
// alternative; before the fix its next settle installed that one-element
// vector on the two-stage alternative and panicked in the control loop,
// which kills the process. Every item must still be served exactly once
// and the executive must drain.
func TestTPCSurvivesLiveAltFlips(t *testing.T) {
	work := queue.New[int](0)
	var served atomic.Int64
	// take claims one item from the work queue, or says how to leave.
	take := func(w *core.Worker) (core.Status, bool) {
		if w.Suspending() {
			return core.Suspended, false
		}
		_, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, time.Millisecond)
		switch {
		case errors.Is(err, queue.ErrClosed):
			return core.Finished, false
		case !ok:
			return core.Suspended, false
		}
		return core.Executing, true
	}
	section := func(w *core.Worker) {
		w.Begin() //dopevet:ignore suspendcheck the item is already claimed; suspension is observed by take
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
		w.End()
	}
	spec := &core.NestSpec{Name: "flip", Alts: []*core.AltSpec{
		{
			Name:   "pipeline",
			Stages: []core.StageSpec{{Name: "front", Type: core.PAR}, {Name: "back", Type: core.PAR}},
			Make: func(any) (*core.AltInstance, error) {
				mid := queue.New[int](16)
				return &core.AltInstance{Stages: []core.StageFns{
					{
						Fn: func(w *core.Worker) core.Status {
							st, ok := take(w)
							if !ok {
								return st
							}
							section(w)
							_ = mid.Enqueue(0) // closed only by Fini, after this stage has left
							return core.Executing
						},
						Fini: mid.Close,
						Load: func() float64 { return float64(work.Len()) },
					},
					{
						Fn: func(w *core.Worker) core.Status {
							if _, err := mid.Dequeue(); err != nil {
								return core.Finished
							}
							section(w)
							served.Add(1)
							return core.Executing
						},
						Load: func() float64 { return float64(mid.Len()) },
					},
				}}, nil
			},
		},
		{
			Name:   "fused",
			Stages: []core.StageSpec{{Name: "all", Type: core.PAR}},
			Make: func(any) (*core.AltInstance, error) {
				return &core.AltInstance{Stages: []core.StageFns{{
					Fn: func(w *core.Worker) core.Status {
						st, ok := take(w)
						if !ok {
							return st
						}
						section(w)
						served.Add(1)
						return core.Executing
					},
					Load: func() float64 { return float64(work.Len()) },
				}}}, nil
			},
		},
	}}
	// ExploreSteps is large so that the explore phase, which with a single
	// PAR stage has nothing to permute, lasts long enough to flip inside.
	tpc := &watchedTPC{TPC: &TPC{Threads: 4, MinSamples: 1, ExploreSteps: 40, SettleTicks: 1}}
	flips := [2]*core.Config{{Alt: 0, Extents: []int{1, 1}}, {Alt: 1, Extents: []int{1}}}
	e, err := core.New(spec,
		core.WithContexts(4),
		core.WithMechanism(tpc),
		core.WithControlInterval(time.Millisecond),
		core.WithInitialConfig(flips[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	fed := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				fed <- n
				return
			default:
			}
			if work.Len() < 64 {
				_ = work.Enqueue(n) // closed only after this goroutine reports
				n++
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("TPC to top out its ramp on the fused alternative", tpc.explore.Load)
	for flip := 0; flip < 4; flip++ {
		e.SetConfig(flips[flip%2])
		// Long enough for the explore phase to end and the ramp to restart.
		seen := tpc.calls.Load()
		waitFor("100 more decisions", func() bool { return tpc.calls.Load() >= seen+100 })
	}
	close(stop)
	sent := <-fed
	work.Close()
	select {
	case <-e.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("executive did not drain after the work queue closed")
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := served.Load(); got != int64(sent) {
		t.Fatalf("served %d of %d items", got, sent)
	}
	if got := e.Suspensions(); got < 4 {
		t.Fatalf("%d of 4 alternative switches went through the suspension protocol", got)
	}
}
