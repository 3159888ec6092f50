package microbench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dope"
	"dope/internal/core"
	"dope/internal/stats"
)

// The altswitch suite is the reconfiguration rung of the layer ladder: what
// a root alternative switch costs the stream, with nothing else going on.
//
// A four-stage ChannelPipeline{Fused: true} with 2 ms virtual stages (a
// pipeline depth, and a fused task, of 8 ms) serves a closed-loop source —
// an unbuffered channel whose feeder always has the next item ready, so an
// item is claimed the moment a head is free. The pipeline alternative runs
// one worker per stage, the fused one four workers: the same 500 items/s.
// Every 50 to 58 ms (jittered by up to a pipeline depth, so that a switch
// lands anywhere in the fused workers' lockstep tasks) the root alternative
// is switched, and each switch is measured twice over:
//
//   - head-idle time (ns_per_op): from the switch request to the next item
//     the source hands out — how long nobody pulled from the input;
//   - items_in_window: items completed in the two pipeline depths (16 ms)
//     after the request; 8 is the steady state.
//
// The two directions are separate cases, since what the predecessor has in
// flight differs: a pipeline drains stage by stage behind its head, a fused
// alternative's only stage is its head.

const (
	altSwitchStage    = 2 * time.Millisecond
	altSwitchStages   = 4
	altSwitchDepth    = altSwitchStages * altSwitchStage
	altSwitchWindow   = 2 * altSwitchDepth
	altSwitchSettle   = 50*time.Millisecond - altSwitchWindow
	altSwitchSwitches = 8 // per direction per sample
)

// altSwitchSample runs one executive through altSwitchSwitches switches in
// each direction and returns, per direction (0: pipeline→fused, 1:
// fused→pipeline), the head-idle times in ns and the window item counts.
func altSwitchSample(rng *rand.Rand) (idle, items [2][]float64, err error) {
	src := make(chan int)
	quit := make(chan struct{})
	var armed, idleNs atomic.Int64 // request time, and the idle it led to
	var completed atomic.Int64
	stages := make([]dope.PipeStage[int], altSwitchStages)
	for i := range stages {
		stages[i] = dope.PipeStage[int]{
			Name: fmt.Sprintf("s%d", i), Par: i > 0,
			Fn: func(v, _ int) int { time.Sleep(altSwitchStage); return v },
		}
	}
	spec := dope.ChannelPipeline("bench", src, stages, func(int) { completed.Add(1) },
		dope.PipelineOptions{Fused: true})
	configs := [2]*core.Config{
		{Alt: 0, Extents: []int{1, 1, 1, 1}},
		{Alt: 1, Extents: []int{altSwitchStages}},
	}
	e, err := core.New(spec, core.WithContexts(2*altSwitchStages), core.WithInitialConfig(configs[0]))
	if err != nil {
		return idle, items, err
	}
	if err := e.Start(); err != nil {
		return idle, items, err
	}
	go func() {
		defer close(src)
		for i := 0; ; i++ {
			select {
			case src <- i:
				if at := armed.Swap(0); at != 0 {
					idleNs.Store(time.Now().UnixNano() - at)
				}
			case <-quit:
				return
			}
		}
	}()
	time.Sleep(altSwitchSettle)
	for n := 0; n < 2*altSwitchSwitches; n++ {
		dir := n % 2
		before := completed.Load()
		idleNs.Store(-1)
		armed.Store(time.Now().UnixNano())
		e.SetConfig(configs[1-dir])
		time.Sleep(altSwitchWindow)
		items[dir] = append(items[dir], float64(completed.Load()-before))
		time.Sleep(altSwitchSettle + time.Duration(rng.Int63n(int64(altSwitchDepth))))
		ns := idleNs.Load()
		if ns < 0 {
			close(quit)
			_ = e.Wait()
			return idle, items, fmt.Errorf("microbench: no item claimed within %v of an alternative switch", altSwitchWindow+altSwitchSettle)
		}
		idle[dir] = append(idle[dir], float64(ns))
	}
	close(quit)
	return idle, items, e.Wait()
}

// median of a non-empty sample; stats.Median fails only on an empty one.
func median(xs []float64) float64 {
	m, _ := stats.Median(xs)
	return m
}

// AltSwitch runs the alternative-switch suite, five samples of
// altSwitchSwitches switches per direction, and returns one result per
// direction: the median head-idle time as ns_per_op (samples are the
// per-sample medians) and the median items_in_window.
func AltSwitch() ([]Result, error) {
	const samples = 5
	names := [2]string{"AltSwitchPipelineToFused", "AltSwitchFusedToPipeline"}
	var idleMed, itemsMed [2][]float64
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < samples; s++ {
		idle, items, err := altSwitchSample(rng)
		if err != nil {
			return nil, err
		}
		for dir := range names {
			idleMed[dir] = append(idleMed[dir], median(idle[dir]))
			itemsMed[dir] = append(itemsMed[dir], median(items[dir]))
		}
	}
	out := make([]Result, len(names))
	for dir, name := range names {
		out[dir] = Result{
			Name:          name,
			Iterations:    altSwitchSwitches,
			NsPerOp:       median(idleMed[dir]),
			Samples:       idleMed[dir],
			ItemsInWindow: median(itemsMed[dir]),
		}
	}
	return out, nil
}
