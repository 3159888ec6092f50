package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dope/benchmark/spans"
	"dope/benchmark/stat"
	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/platform"
	"dope/internal/queue"
)

// pipeline is the spin-pipe program: a benchmark-owned root pipeline
// SEQ → PAR → SEQ of native Burn tasks with bounded queues between the
// stages and one producer blocked on the bounded head queue (a closed loop:
// the producer can only run as fast as the pipeline drains).
type pipeline struct {
	sc    *Scenario
	tr    *spans.Tracer
	seed  uint64
	exec  *core.Exec
	pool  platform.ContextPool
	in    *queue.Queue[pipeItem]
	mid   *queue.Queue[pipeItem]
	out   *queue.Queue[pipeItem]
	names [3]string

	halt     atomic.Bool
	produced uint64 // written by the producer, read after prodDone
	prodDone chan struct{}
	clock    time.Time // epoch of born and done stamps

	// Tail state. The tail stage is SEQ, so one goroutine owns it; the
	// runner reads it after Wait, except count.
	count atomic.Uint64
	sum   uint64
	xor   uint64
	lats  []latSample

	winFrom, winTo int64 // measured window on the pipeline's clock, ns

	// Sampled call timings (traced run only): Begin, End, Enqueue,
	// Dequeue, and the work between Begin and End, per stage for the last.
	begin, end, enq, deq samples
	work                 [3]samples
	events               eventLog
	firstReport          *core.Report
	lastReport           *core.Report
}

// pipeItem is one item in flight. seq orders items as produced; v is the
// payload each stage transforms; born stamps the sampled items whose
// end-to-end latency the tail records.
type pipeItem struct {
	seq  uint64
	v    uint64
	born int64
}

type latSample struct{ done, lat int64 }

const (
	// latencyEvery: one item in this many carries a birth stamp.
	latencyEvery = 64
	// timeEvery: in the traced run one functor call in this many, per
	// worker, has its calls into core and queue timed and recorded.
	timeEvery = 512
	// maxSlots bounds the per-worker call counters of a stage.
	maxSlots = 64
)

// The stages' payload transforms. They are cheap next to Burn and exist so
// that the tail's checksum proves every item went through every stage
// exactly once.
func stageF(stage int, v uint64) uint64 {
	switch stage {
	case 0:
		return v*6364136223846793005 + 1442695040888963407
	case 1:
		return v ^ (v >> 29) ^ 0x9e3779b97f4a7c15
	default:
		return v*0xbf58476d1ce4e5b9 + 7
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fold is the tail's checksum step. The PAR stage reorders items, so the
// fold is commutative; it binds each payload to its sequence number, so a
// lost, duplicated or mis-transformed item changes it.
func fold(sum, xor *uint64, it pipeItem) {
	h := splitmix(it.v ^ (it.seq+1)*0x9e3779b97f4a7c15)
	*sum += h
	*xor ^= h
}

func buildPipeline(sc *Scenario, seed int64, tr *spans.Tracer) (system, error) {
	nproc := runtime.NumCPU()
	contexts, extent := sc.Contexts, sc.Pipeline.ParExtent
	if contexts == 0 {
		contexts = nproc
	}
	if extent == 0 {
		extent = nproc
	}
	p := &pipeline{
		sc: sc, tr: tr, seed: uint64(seed),
		in:       queue.New[pipeItem](sc.Pipeline.QueueCap),
		mid:      queue.New[pipeItem](sc.Pipeline.QueueCap),
		out:      queue.New[pipeItem](sc.Pipeline.QueueCap),
		names:    [3]string{"head", "mid", "tail"},
		prodDone: make(chan struct{}),
		clock:    time.Now(),
	}
	spec := &core.NestSpec{Name: "spin", Alts: []*core.AltSpec{{
		Name: "pipeline",
		Stages: []core.StageSpec{
			{Name: p.names[0], Type: core.SEQ},
			{Name: p.names[1], Type: core.PAR},
			{Name: p.names[2], Type: core.SEQ},
		},
		Make: func(any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{
				{Fn: p.stage(0, p.in, p.mid), Fini: p.mid.Close,
					Load: func() float64 { return float64(p.in.Len()) }},
				{Fn: p.stage(1, p.mid, p.out), Fini: p.out.Close,
					Load: func() float64 { return float64(p.mid.Len()) }},
				{Fn: p.stage(2, p.out, nil),
					Load: func() float64 { return float64(p.out.Len()) }},
			}}, nil
		},
	}}}
	e, err := core.New(spec,
		core.WithContexts(contexts),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, extent, 1}}),
		core.WithTrace(p.events.observe),
	)
	if err != nil {
		return nil, err
	}
	p.exec, p.pool = e, e.Contexts()
	if err := e.Start(); err != nil {
		return nil, err
	}
	go p.produce()
	return p, nil
}

func (p *pipeline) now() int64 { return int64(time.Since(p.clock)) }

// produce is the closed loop's one client: it blocks on the bounded head
// queue, so it offers exactly as much as the pipeline takes.
func (p *pipeline) produce() {
	defer close(p.prodDone)
	var seq uint64
	for !p.halt.Load() {
		it := pipeItem{seq: seq, v: splitmix(p.seed + seq)}
		if seq%latencyEvery == 0 {
			it.born = p.now()
		}
		if p.in.Enqueue(it) != nil {
			break
		}
		seq++
	}
	p.produced = seq
	p.in.Close()
}

// stage builds the functor of stage idx: take an item, hold a context for
// one Burn, transform the payload, pass the item on (or, at the tail, fold
// it into the checksum). In the traced run one call in timeEvery has every
// call into core and queue timed and recorded as spans.
func (p *pipeline) stage(idx int, in, out *queue.Queue[pipeItem]) core.Functor {
	units := p.sc.Pipeline.BurnUnits
	name := "stage." + p.names[idx]
	var calls [maxSlots]struct {
		n uint64
		_ [56]byte // one counter per cache line: workers never share one
	}
	return func(w *core.Worker) core.Status {
		var rec *callRecorder
		if p.tr.On() {
			c := &calls[w.Slot()%maxSlots]
			c.n++
			if c.n%timeEvery == 0 {
				rec = newRecorder(p.tr, name)
			}
		}
		it, err := in.Dequeue()
		if err != nil {
			return core.Finished
		}
		if rec != nil {
			rec.lap(&p.deq, "queue.dequeue")
		}
		w.Begin()
		if rec != nil {
			rec.lap(&p.begin, "core.begin")
		}
		apps.Burn(units)
		it.v = stageF(idx, it.v)
		if rec != nil {
			rec.lap(&p.work[idx], "stage.work")
		}
		w.End()
		if rec != nil {
			rec.lap(&p.end, "core.end")
		}
		if out != nil {
			// Closed only by this stage's own Fini, after every worker of
			// the stage has left; the enqueue cannot fail.
			_ = out.Enqueue(it)
			if rec != nil {
				rec.lap(&p.enq, "queue.enqueue")
			}
		} else {
			fold(&p.sum, &p.xor, it)
			if it.born != 0 {
				done := p.now()
				p.lats = append(p.lats, latSample{done: done, lat: done - it.born})
			}
			p.count.Add(1)
		}
		if rec != nil {
			rec.finish(int64(it.seq))
		}
		return core.Executing
	}
}

// callRecorder times the consecutive calls one functor invocation makes
// and records each as a child span of the invocation's own span. Nothing
// is written anywhere shared until finish, so that one call's bookkeeping
// does not land in the next call's time.
type callRecorder struct {
	tr    *spans.Tracer
	name  string
	id    uint64
	start int64
	last  int64
	kids  [5]spans.Span // dequeue, begin, work, end, enqueue
	into  [5]*samples
	n     int
}

func newRecorder(tr *spans.Tracer, name string) *callRecorder {
	now := tr.Now()
	return &callRecorder{tr: tr, name: name, id: tr.NewID(), start: now, last: now}
}

// lap closes the interval since the previous lap as one call named op.
func (r *callRecorder) lap(into *samples, op string) {
	now := r.tr.Now()
	r.kids[r.n] = spans.Span{Parent: r.id, Name: op, Start: r.last, End: now}
	r.into[r.n] = into
	r.n++
	r.last = r.tr.Now()
}

// finish records the invocation's span and its children, tagged with the
// request they served, and files each call's duration less the one clock
// read it contains.
func (r *callRecorder) finish(req int64) {
	r.tr.Add(spans.Span{ID: r.id, Req: req, Name: r.name, Start: r.start, End: r.last})
	for i, k := range r.kids[:r.n] {
		r.into[i].add(max(k.Dur()-r.tr.ClockCost(), 0))
		k.Req = req
		r.tr.Add(k)
	}
}

// prime waits until the first items have come out of the tail.
func (p *pipeline) prime() error {
	if !waitUntil(func() bool { return p.count.Load() >= 2048 }) {
		return fmt.Errorf("pipeline passed %d items in %v", p.count.Load(), drainTimeout)
	}
	return nil
}

// drive lets the closed loop run for d; the producer never stops between
// set-up and finish.
func (p *pipeline) drive(d time.Duration, _ int64, win *windowEdges) error {
	if win == nil {
		time.Sleep(d)
		return nil
	}
	win.start()
	p.winFrom = p.now()
	p.firstReport = p.exec.Report()
	time.Sleep(d)
	p.winTo = p.now()
	p.lastReport = p.exec.Report()
	win.end()
	return nil
}

func (p *pipeline) completed() uint64             { return p.count.Load() }
func (p *pipeline) execs() []*core.Exec           { return []*core.Exec{p.exec} }
func (p *pipeline) pools() []platform.ContextPool { return []platform.ContextPool{p.pool} }
func (p *pipeline) shutdown()                     {}

func (p *pipeline) finish() (*outcome, error) {
	start := time.Now()
	p.halt.Store(true)
	if err := waitFor(p.prodDone, "the producer"); err != nil {
		return nil, err
	}
	if err := waitExec(p.exec); err != nil {
		return nil, err
	}
	out := &outcome{drain: time.Since(start), attempted: int(p.produced)}

	// Every produced item came out of the tail exactly once, transformed
	// by every stage: compare with a single-threaded reference.
	var sum, xor uint64
	for seq := uint64(0); seq < p.produced; seq++ {
		v := splitmix(p.seed + seq)
		for s := 0; s < 3; s++ {
			v = stageF(s, v)
		}
		fold(&sum, &xor, pipeItem{seq: seq, v: v})
	}
	got := p.count.Load()
	if got != p.produced {
		out.failed = int(max(got, p.produced) - min(got, p.produced))
		out.problems = append(out.problems, fmt.Sprintf("produced %d items, tail saw %d", p.produced, got))
	}
	if sum != p.sum || xor != p.xor {
		out.problems = append(out.problems, fmt.Sprintf(
			"tail checksum %016x/%016x differs from single-threaded reference %016x/%016x", p.sum, p.xor, sum, xor))
	}

	var lat []float64
	for _, s := range p.lats {
		if s.done >= p.winFrom && s.done < p.winTo {
			lat = append(lat, float64(s.lat)/1e6)
		}
	}
	out.respN = len(lat)
	out.resp = percentiles(lat)
	return out, nil
}

func (p *pipeline) layers(v values, items float64) {
	v["queue.peak_len"] = float64(max(p.in.Peak(), p.mid.Peak(), p.out.Peak()))
	v["queue.sojourn_ms_mean"] = (p.in.MeanSojourn() + p.mid.MeanSojourn() + p.out.MeanSojourn()) / 3 * 1e3
	v["queue.shed"] = float64(p.in.Shed() + p.mid.Shed() + p.out.Shed())
	if p.tr == nil {
		return
	}
	v["core.begin_ns_p50"], v["core.begin_ns_p99"] = p.begin.percentile(50), p.begin.percentile(99)
	v["core.end_ns_p50"], v["core.end_ns_p99"] = p.end.percentile(50), p.end.percentile(99)
	v["queue.enqueue_ns_p50"], v["queue.enqueue_ns_p99"] = p.enq.percentile(50), p.enq.percentile(99)
	v["queue.dequeue_ns_p50"], v["queue.dequeue_ns_p99"] = p.deq.percentile(50), p.deq.percentile(99)
	v["stage.work_ns_p50"] = p.work[1].percentile(50)

	// The monitor's view against the benchmark's own: per stage, the mean
	// Begin-to-End time against the timed calls, and the iterations the
	// monitor counted over the window against the items the tail counted.
	// (The monitor's smoothed Rate leaves out the time a stage has no
	// section open, and with fewer contexts than workers every stage here
	// spends much of its time waiting for one, so Rate is not comparable
	// with a count over wall time; tenants-ops compares it properly.)
	first, last := p.firstReport, p.lastReport
	for i, name := range p.names {
		a, b := first.Root.Stage(name), last.Root.Stage(name)
		if own := p.work[i].mean() / 1e9; own > 0 {
			v["monitor.exec_time_rel_err"] = max(v["monitor.exec_time_rel_err"], relErr(b.MeanExecTime, own))
		}
		v["monitor.rate_rel_err"] = max(v["monitor.rate_rel_err"], relErr(float64(b.Iterations-a.Iterations), items))
	}

	// An item passes three stages: three Begin/End pairs and three units
	// of work, three dequeues and two enqueues inside the executive, plus
	// the producer's enqueue. What share of the measured CPU per item do
	// the medians of those calls add up to?
	perItem := 3*(v["core.begin_ns_p50"]+v["core.end_ns_p50"]) +
		p.work[0].percentile(50) + p.work[1].percentile(50) + p.work[2].percentile(50) +
		3*v["queue.dequeue_ns_p50"] + 3*v["queue.enqueue_ns_p50"]
	if cpu := v["cpu_us_per_item"] * 1e3; cpu > 0 {
		v["core.accounted_share"] = perItem / cpu
	}

	// The same three stages without the executive, and on one thread.
	d := time.Duration(float64(p.winTo-p.winFrom) / 8)
	v["baseline.bare_items_per_s"] = barePipeline(p.sc.Pipeline, d)
	v["baseline.seq_items_per_s"] = seqPipeline(p.sc.Pipeline, d)
	if bare := v["baseline.bare_items_per_s"]; bare > 0 {
		v["core.managed_ratio"] = v["items_per_s"] / bare
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}

// barePipeline runs the same three Burn stages as plain goroutines joined
// by channels of the same capacity, with no executive, for d, and returns
// items per second: what the work costs unmanaged.
func barePipeline(ps *PipelineSpec, d time.Duration) float64 {
	extent := ps.ParExtent
	if extent == 0 {
		extent = runtime.NumCPU()
	}
	a, b := make(chan uint64, ps.QueueCap), make(chan uint64, ps.QueueCap)
	var halt atomic.Bool
	var mids sync.WaitGroup
	go func() {
		for v := uint64(0); !halt.Load(); v++ {
			apps.Burn(ps.BurnUnits)
			a <- stageF(0, v)
		}
		close(a)
	}()
	for i := 0; i < extent; i++ {
		mids.Add(1)
		go func() {
			defer mids.Done()
			for v := range a {
				apps.Burn(ps.BurnUnits)
				b <- stageF(1, v)
			}
		}()
	}
	go func() {
		mids.Wait()
		close(b)
	}()
	done := make(chan uint64)
	go func() {
		var n uint64
		for range b {
			apps.Burn(ps.BurnUnits)
			n++
		}
		done <- n
	}()
	start := time.Now()
	time.Sleep(d)
	halt.Store(true)
	n := <-done
	return float64(n) / time.Since(start).Seconds()
}

// seqPipeline runs the three stages back to back on one goroutine for d.
func seqPipeline(ps *PipelineSpec, d time.Duration) float64 {
	start := time.Now()
	var n uint64
	var v uint64
	for time.Since(start) < d {
		for i := 0; i < 256; i++ {
			for s := 0; s < 3; s++ {
				apps.Burn(ps.BurnUnits)
				v = stageF(s, v)
			}
			n++
		}
	}
	return float64(n) / time.Since(start).Seconds()
}

// waitUntil polls cond until it holds, for up to the drain timeout, and
// reports whether it came to hold. It yields instead of sleeping for the
// first milliseconds: this host's shortest sleep is over a millisecond,
// which would quantize a set-up that takes a few.
func waitUntil(cond func() bool) bool {
	start := time.Now()
	for !cond() {
		switch waited := time.Since(start); {
		case waited > drainTimeout:
			return false
		case waited < 20*time.Millisecond:
			runtime.Gosched()
		default:
			time.Sleep(time.Millisecond)
		}
	}
	return true
}

// waitFor waits for ch to close, up to the drain timeout.
func waitFor(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(drainTimeout):
		return fmt.Errorf("%s did not finish within %v", what, drainTimeout)
	}
}

// waitExec joins an executive whose input has been closed.
func waitExec(e *core.Exec) error {
	if err := waitFor(e.Done(), "the executive"); err != nil {
		return err
	}
	return e.Wait()
}

// eventLog keeps what the executive's trace callback delivers that the
// benchmark reports: the gaps between suspensions and resumptions, on the
// executive's own uptime clock (events are delivered in batches, so the
// time of receipt says little).
type eventLog struct {
	mu        sync.Mutex
	suspended time.Duration
	open      bool
	pausesMs  []float64
}

func (l *eventLog) observe(ev core.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch ev.Kind {
	case core.EventSuspend:
		l.suspended, l.open = ev.Time, true
	case core.EventResume:
		if l.open {
			l.pausesMs = append(l.pausesMs, (ev.Time-l.suspended).Seconds()*1e3)
			l.open = false
		}
	}
}

func (l *eventLog) pauseP50() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return stat.PercentileLoose(l.pausesMs, 50)
}
