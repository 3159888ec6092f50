package main

import (
	"runtime"
	"sync"
	"time"

	"dope/benchmark/spans"
	"dope/internal/core"
)

// probe is the traced run's 10 Hz sampler. It reads what the layers expose
// through public getters (pool occupancy, reports, the goroutine count) and
// times its own Exec.Report calls. It also switches the tracer off for one
// slice in four, so that the same run yields the cost per item with and
// without the wrappers recording: the tracing overhead.
type probe struct {
	sys  system
	tr   *spans.Tracer
	quit chan struct{}
	wg   sync.WaitGroup

	reportNs       samples
	samples        int
	blockedSamples int
	goroutinesPeak int

	// stages holds, per stage of every executive, the first and last
	// report seen and the running sum of its live-worker gauge, from which
	// the busiest stage's share of time busy is worked out.
	stages map[string]*stageWatch

	on, off sliceSum
}

type stageWatch struct {
	firstIter, lastIter uint64
	meanExec            float64
	workerSum           float64
	n                   int
}

// sliceSum accumulates the traced or the untraced slices of a run.
type sliceSum struct {
	cpu   time.Duration
	items uint64
	wall  time.Duration
}

const (
	probePeriod = 100 * time.Millisecond
	// sliceTicks probe ticks make one slice; slice i records spans unless
	// i%untracedEvery == 0.
	sliceTicks    = 5
	untracedEvery = 4
)

func startProbe(sys system, tr *spans.Tracer) *probe {
	p := &probe{sys: sys, tr: tr, quit: make(chan struct{}), stages: map[string]*stageWatch{}}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *probe) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	slice, traced := 0, false
	p.tr.Set(traced)
	edge := p.edge()
	closeSlice := func() {
		now := p.edge()
		sum := &p.off
		if traced {
			sum = &p.on
		}
		sum.cpu += now.cpu - edge.cpu
		sum.items += now.items - edge.items
		sum.wall += now.at.Sub(edge.at)
		edge = now
	}
	for n := 1; ; n++ {
		select {
		case <-p.quit:
			closeSlice()
			p.tr.Set(false)
			return
		case <-tick.C:
		}
		p.sample()
		if n%sliceTicks == 0 {
			closeSlice()
			slice++
			traced = slice%untracedEvery != 0
			p.tr.Set(traced)
		}
	}
}

type sliceEdge struct {
	at    time.Time
	cpu   time.Duration
	items uint64
}

func (p *probe) edge() sliceEdge {
	return sliceEdge{at: time.Now(), cpu: processCPU(), items: p.sys.completed()}
}

func (p *probe) sample() {
	p.samples++
	for _, pool := range p.sys.pools() {
		if pool.Blocked() > 0 {
			p.blockedSamples++
			break
		}
	}
	p.goroutinesPeak = max(p.goroutinesPeak, runtime.NumGoroutine())
	for _, e := range p.sys.execs() {
		start := p.tr.Now()
		rep := e.Report()
		end := p.tr.Now()
		p.reportNs.add(end - start)
		if p.tr.On() {
			p.tr.Add(spans.Span{Req: -1, Name: "core.report", Start: start, End: end})
		}
		p.watch(rep.Root)
	}
}

func (p *probe) watch(n *core.NestReport) {
	if n == nil {
		return
	}
	for i := range n.Stages {
		st := &n.Stages[i]
		key := n.Path + "/" + st.Name
		w := p.stages[key]
		if w == nil {
			w = &stageWatch{firstIter: st.Iterations}
			p.stages[key] = w
		}
		w.lastIter = st.Iterations
		w.meanExec = st.MeanExecTime
		w.workerSum += float64(st.Workers)
		w.n++
	}
	for _, c := range n.Children {
		p.watch(c)
	}
}

func (p *probe) stop() {
	close(p.quit)
	p.wg.Wait()
}

func (p *probe) layers(v values) {
	v["core.report_us_p50"] = p.reportNs.percentile(50) / 1e3
	v["go.goroutines_peak"] = float64(p.goroutinesPeak)
	if p.samples > 0 {
		v["platform.blocked_share"] = float64(p.blockedSamples) / float64(p.samples)
	}
	wall := (p.on.wall + p.off.wall).Seconds()
	for _, w := range p.stages {
		if w.n == 0 || w.workerSum == 0 || wall <= 0 {
			continue
		}
		busy := float64(w.lastIter-w.firstIter) * w.meanExec
		share := busy / (w.workerSum / float64(w.n) * wall)
		v["stage.busy_share_max"] = max(v["stage.busy_share_max"], share)
	}
	// Tracing overhead: how much more CPU an item cost while the wrappers
	// were recording than while they were not, within this one run.
	if p.on.items > 0 && p.off.items > 0 && p.off.cpu > 0 {
		traced := p.on.cpu.Seconds() / float64(p.on.items)
		plain := p.off.cpu.Seconds() / float64(p.off.items)
		v["trace.overhead_share"] = 1 - plain/traced
	}
}
