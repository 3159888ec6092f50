package harness

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/mechanism"
	"dope/internal/workload"
)

// ReconfigDip measures what an in-place stage resize costs a running
// program: a ferret batch is subjected to forced extent toggles, and the
// experiment reports the windowed-throughput dip across each change, the
// settle latency until the per-stage worker gauge reaches its new target,
// and the suspension/resize counter split. A second arm runs the transcode
// server under WQ-Linear — an extent-only mechanism — to show
// reconfigurations and resizes climbing while the suspension count stays
// flat. (EXPERIMENTS.md keeps the frozen comparison against the deleted
// whole-nest respawn protocol.)
func ReconfigDip() (*Table, error) {
	t := &Table{
		ID:     "reconfig-dip",
		Title:  "REAL RUNTIME: reconfiguration cost of in-place stage resizes",
		Header: []string{"arm", "queries/s", "dip q/s", "settle ms", "reconfigs", "resizes", "suspensions"},
		Notes: []string{
			"forced extent toggles on a running ferret batch: in-place resizing keeps the other stages flowing, with no suspension",
			"WQ-Linear arm: an extent-only mechanism climbs reconfigs/resizes while suspensions stay flat",
		},
	}
	for _, arm := range []func() ([]string, error){reconfigDipArm, reconfigWQLinearArm} {
		row, err := arm()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// reconfigDipArm runs the forced-toggle arm: a ferret batch whose segment…rank
// extents are flipped between narrow and wide while the batch flows.
func reconfigDipArm() ([]string, error) {
	const nReq = 400
	narrow := []int{1, 2, 2, 2, 2, 1}
	wide := []int{1, 6, 6, 6, 6, 1}

	s := apps.NewServer(nil)
	spec := apps.NewFerret(s, apps.FerretParams{UnitsBase: 120})
	e, err := core.New(spec,
		core.WithContexts(liveContexts),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: narrow}))
	if err != nil {
		return nil, err
	}
	for i := 0; i < nReq; i++ {
		s.Submit(1.0)
	}
	if err := e.Start(); err != nil {
		return nil, err
	}

	// Sample completions in fixed windows; the dip is the slowest window of
	// the toggle phase.
	const win = 25 * time.Millisecond
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	var mu sync.Mutex
	var windows []float64
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(win)
		defer tick.Stop()
		last := s.Meter.Total()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				cur := s.Meter.Total()
				mu.Lock()
				windows = append(windows, float64(cur-last)/win.Seconds())
				mu.Unlock()
				last = cur
			}
		}
	}()

	// Toggle extents while the batch flows; settle latency is the time until
	// the monitor's worker gauge for the widest-swinging stage reaches its
	// new target (retirement is observed only at task boundaries, spawn
	// immediately).
	var settleSum time.Duration
	var settles int
	for i, tgt := range [][]int{wide, narrow, wide, narrow, wide, narrow} {
		time.Sleep(30 * time.Millisecond)
		e.SetConfig(&core.Config{Alt: 0, Extents: tgt})
		if d, ok := waitWorkers(e, spec.Name, "segment", tgt[1], 2*time.Second); ok {
			settleSum += d
			settles++
		} else if i == 0 {
			// The batch drained before the first toggle landed; the arm is
			// still reportable, just without settle data.
			break
		}
	}
	close(stopSample)
	sampleWG.Wait()
	s.Close()
	if err := e.Wait(); err != nil {
		return nil, err
	}

	mu.Lock()
	dip := math.Inf(1)
	// Skip the first window (spin-up) and any trailing drain windows.
	for i, w := range windows {
		if i == 0 || i >= len(windows)-1 {
			continue
		}
		if w < dip {
			dip = w
		}
	}
	mu.Unlock()
	dipCell := "-"
	if !math.IsInf(dip, 1) {
		dipCell = f1(dip)
	}
	settleCell := "-"
	if settles > 0 {
		settleCell = ms(settleSum.Seconds() / float64(settles))
	}
	return []string{
		"in-place", f1(s.Meter.Overall()), dipCell, settleCell,
		fmt.Sprint(e.Reconfigurations()), fmt.Sprint(e.Resizes()), fmt.Sprint(e.Suspensions()),
	}, nil
}

// waitWorkers polls the report until the stage's worker gauge hits want.
func waitWorkers(e *core.Exec, nest, stage string, want int, timeout time.Duration) (time.Duration, bool) {
	start := time.Now()
	for time.Since(start) < timeout {
		if n := e.Report().Nest(nest); n != nil {
			if st := n.Stage(stage); st != nil && st.Workers == want {
				return time.Since(start), true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, false
}

// reconfigWQLinearArm serves the transcode app under WQ-Linear at moderate
// load: every decision is a root extent change (plus an inner-alternative
// choice that applies at the next instantiation), so the executive's
// suspension counter must stay flat while reconfigurations and resizes
// climb.
func reconfigWQLinearArm() ([]string, error) {
	const nReq = 40
	params := apps.TranscodeParams{Frames: 8, UnitsPerFrame: 2000}
	maxTp, err := calibrateTranscode(params)
	if err != nil {
		return nil, err
	}
	s := apps.NewServer(nil)
	spec := apps.NewTranscode(s, params)
	cfg := core.DefaultConfig(spec)
	cfg.Extents[0] = maxInt(1, liveContexts/8)
	if c := cfg.Child("video"); c != nil {
		c.Alt = 0
		c.Extents = []int{1, 6, 1}
	}
	e, err := core.New(spec,
		core.WithContexts(liveContexts),
		core.WithInitialConfig(cfg),
		core.WithControlInterval(5*time.Millisecond),
		core.WithMechanism(&mechanism.WQLinear{Threads: liveContexts, Mmax: 8, Mmin: 1, Qmax: 10}),
	)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	arr := workload.NewArrivals(workload.LoadFactor(0.7).RateFor(maxTp), 23)
	for i := 0; i < nReq; i++ {
		time.Sleep(arr.Next())
		if err := s.Submit(1.0); err != nil {
			break
		}
	}
	s.Close()
	if err := e.Wait(); err != nil {
		return nil, err
	}
	return []string{
		"WQ-Linear", f1(s.Meter.Overall()), "-", "-",
		fmt.Sprint(e.Reconfigurations()), fmt.Sprint(e.Resizes()), fmt.Sprint(e.Suspensions()),
	}, nil
}
