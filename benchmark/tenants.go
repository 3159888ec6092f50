package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dope/benchmark/loadgen"
	"dope/benchmark/spans"
	"dope/benchmark/stat"
	"dope/internal/admin"
	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/faults"
	"dope/internal/metrics"
	"dope/internal/platform"
	"dope/internal/queue"
	"dope/internal/replay"
	"dope/internal/tenancy"
)

// tenants is the tenants-ops program: several benchmark-owned single-stage
// PAR nests sharing one context pool under a tenancy arbiter, with the live
// ops surface on — a collector on every executive and on the arbiter, the
// multi-tenant admin handler served on loopback and scraped by one client,
// and a replay recorder — while one merged open-loop schedule drives them.
type tenants struct {
	sc    *Scenario
	tr    *spans.Tracer
	epoch time.Time
	pool  *platform.Contexts
	arb   *tenancy.Arbiter
	col   *metrics.Collector
	ts    []*tenant
	web   *loopback

	release []func()
	quit    chan struct{}
	ops     sync.WaitGroup
	log     bytes.Buffer // the replay recorder's JSONL stream
	rec     *replay.Recorder

	// Timings of the benchmark's own calls into each layer.
	tickNs, admitNs, snapshotNs, recordNs samples
	seriesNs, statsNs, enqueueNs          samples
	beginNs, endNs, workNs                samples
	seriesBytes                           samples
	scrapeErrors                          atomic.Uint64
	dropped                               atomic.Uint64
	victimRates                           samples // the monitor's Rate for the victim's stage, sampled

	win *tenantWindow
}

// tenant is one registered nest, its request queue and its client-side
// counts (which belong to the generator goroutine).
type tenant struct {
	spec     *TenantSpec
	q        *queue.Queue[*treq]
	t        *tenancy.Tenant
	served   atomic.Uint64
	sent     int
	rejected int
}

// treq is one request. The generator stamps due; the worker that serves it
// stamps the rest and bumps n, so a request served twice shows.
type treq struct {
	due      int64 // ns since the system's epoch, as are the other stamps
	taken    int64
	begun    int64
	ended    int64
	done     int64
	n        atomic.Int32
	rejected bool
}

// tenantWindow is the accounting of the measured window.
type tenantWindow struct {
	reqs      [][]*treq // per tenant
	shedAt    []uint64  // each queue's shed count when the window opened
	late      []time.Duration
	backlog   []backlogPoint
	from, to  int64
	cursorAt  uint64
	cursorEnd uint64
}

// tenantPoll is how often a worker blocked on an empty queue re-checks for
// suspension.
const tenantPoll = time.Millisecond

func buildTenants(sc *Scenario, seed int64, tr *spans.Tracer) (system, error) {
	ops := sc.Ops
	s := &tenants{
		sc: sc, tr: tr, epoch: time.Now(),
		pool: platform.NewContexts(sc.Contexts),
		col:  metrics.NewCollector(ops.CollectorWindow),
		quit: make(chan struct{}),
	}
	s.rec = replay.NewRecorder(&s.log)
	s.arb = tenancy.New(s.pool, tenancy.WithManualTick())
	interval := time.Duration(ops.CollectorIntervalMs) * time.Millisecond
	for i := range sc.Tenants {
		spec := &sc.Tenants[i]
		tn := &tenant{spec: spec}
		if spec.QueueCap > 0 {
			tn.q = queue.NewWithPolicy[*treq](spec.QueueCap, queue.ShedOldest)
		} else {
			tn.q = queue.New[*treq](0)
		}
		root := s.nest(tn)
		if spec.PanicRate > 0 {
			faults.New(spec.PanicRate, uint64(seed)*2+1, faults.WithKind(faults.Panic)).WrapNest(root)
		}
		if spec.StallRate > 0 {
			faults.New(spec.StallRate, uint64(seed)*2+2, faults.WithKind(faults.Stall)).WrapNest(root)
		}
		t, err := s.arb.Register(tenancy.TenantSpec{
			Name: spec.Name, Root: root, Weight: spec.Weight,
			MinContexts: spec.MinContexts, MaxContexts: spec.MaxContexts,
			Options: []core.Option{core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{spec.Extent}})},
		})
		if err != nil {
			s.shutdown()
			return nil, fmt.Errorf("registering tenant %s: %w", spec.Name, err)
		}
		tn.t = t
		s.ts = append(s.ts, tn)
		s.release = append(s.release, s.col.Attach(t.Exec(), interval))
	}
	s.release = append(s.release, s.arb.AttachCollector(s.col, interval))
	web, err := serveLoopback(admin.MultiHandlerWithCollector(s.arb, nil, s.col))
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.web = web
	s.every(time.Duration(ops.TickMs)*time.Millisecond, s.tick)
	s.every(time.Second/time.Duration(ops.ScrapeHz), s.scraper())
	s.every(time.Second/time.Duration(ops.RecordHz), s.record)
	return s, nil
}

func (s *tenants) now() int64 { return int64(time.Since(s.epoch)) }

// span records [from, to], given on the system's clock, when tracing.
func (s *tenants) span(name string, id, parent uint64, req int64, from, to int64) {
	shift := s.tr.At(s.epoch)
	s.tr.Add(spans.Span{ID: id, Parent: parent, Req: req, Name: name, Start: from + shift, End: to + shift})
}

// nest builds a tenant's program: one PAR stage whose workers take a
// request, hold a context for the task's virtual work and mark the request
// served.
func (s *tenants) nest(tn *tenant) *core.NestSpec {
	spec := tn.spec
	stage := core.StageSpec{Name: "serve", Type: core.PAR}
	if spec.PanicRate > 0 || spec.StallRate > 0 {
		stage.OnFailure = core.FailRestart
		// The injected faults are this tenant's normal state, not a stage
		// gone rogue: the budget must not escalate them to fail-stop.
		stage.FailureBudget = 1 << 16
		stage.FailureWindow = time.Second
		stage.Deadline = time.Duration(spec.DeadlineMs) * time.Millisecond
	}
	fn := func(w *core.Worker) core.Status {
		if w.Suspending() {
			return core.Suspended
		}
		r, ok, err := tn.q.DequeueWhile(func() bool { return !w.Suspending() }, tenantPoll)
		if errors.Is(err, queue.ErrClosed) {
			return core.Finished
		}
		if !ok {
			return core.Suspended
		}
		// The request is claimed: serve it whatever Begin and End report.
		r.taken = s.now()
		w.Begin()
		r.begun = s.now()
		apps.Work(spec.TaskUnits)
		r.ended = s.now()
		st := w.End()
		r.done = s.now()
		r.n.Add(1)
		tn.served.Add(1)
		return st
	}
	return &core.NestSpec{Name: spec.Name, Alts: []*core.AltSpec{{
		Name:   "doall",
		Stages: []core.StageSpec{stage},
		Make: func(any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn:      fn,
				Load:    func() float64 { return float64(tn.q.Len()) },
				Shed:    tn.q.Shed,
				Sojourn: tn.q.MeanSojourn,
			}}}, nil
		},
	}}}
}

// every runs fn on its own goroutine once per period until shutdown.
func (s *tenants) every(period time.Duration, fn func()) {
	s.ops.Add(1)
	go func() {
		defer s.ops.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// timed runs fn, adds its duration to into and, when tracing, records it
// as a span.
func (s *tenants) timed(name string, into *samples, fn func()) {
	start := s.now()
	fn()
	end := s.now()
	into.add(end - start)
	if s.tr.On() {
		s.span(name, 0, 0, -1, start, end)
	}
}

// tick is the benchmark's own arbitration tick (the arbiter runs with
// WithManualTick), so that every Tick can be timed from outside.
func (s *tenants) tick() { s.timed("tenancy.tick", &s.tickNs, s.arb.Tick) }

// record is the replay recorder's sample: every executive's report.
func (s *tenants) record() {
	for _, tn := range s.ts {
		rep := tn.t.Exec().Report()
		if tn.spec.Victim {
			if st := rep.Root.Stage("serve"); st != nil {
				s.victimRates.add(int64(st.Rate))
			}
		}
		s.timed("replay.record", &s.recordNs, func() {
			if err := s.rec.Record(rep); err != nil {
				s.scrapeErrors.Add(1)
			}
		})
	}
}

// scraper returns the ops client's round: the collector's snapshot taken
// directly (timed as the metrics layer), then /series?since=, /stats and
// /healthz over the one connection (timed as the admin layer).
func (s *tenants) scraper() func() {
	var cursor uint64
	return func() {
		s.timed("metrics.snapshot", &s.snapshotNs, func() {
			s.dropped.Store(s.col.Snapshot(cursor).Dropped)
		})
		var body []byte
		var err error
		s.timed("admin.series", &s.seriesNs, func() {
			body, err = s.web.do(http.MethodGet, fmt.Sprintf("/series?since=%d", cursor), nil)
		})
		var head struct {
			Cursor uint64 `json:"cursor"`
		}
		if err == nil {
			err = json.Unmarshal(body, &head)
		}
		if err != nil {
			s.scrapeErrors.Add(1)
		} else {
			cursor = head.Cursor
			s.seriesBytes.add(int64(len(body)))
		}
		s.timed("admin.stats", &s.statsNs, func() {
			if _, err := s.web.do(http.MethodGet, "/stats", nil); err != nil {
				s.scrapeErrors.Add(1)
			}
		})
		if _, err := s.web.do(http.MethodGet, "/healthz", nil); err != nil {
			s.scrapeErrors.Add(1)
		}
	}
}

// send is the generator's one step for one arrival.
func (s *tenants) send(a loadgen.Arrival, due time.Time, measured bool) {
	tn := s.ts[a.Src]
	r := &treq{due: int64(due.Sub(s.epoch))}
	tn.sent++
	if measured {
		s.win.reqs[a.Src] = append(s.win.reqs[a.Src], r)
	}
	if tn.spec.Admit {
		var ok bool
		if s.tr.On() {
			s.timed("tenancy.admit", &s.admitNs, func() { ok = tn.t.Admit() })
		} else {
			ok = tn.t.Admit()
		}
		if !ok {
			r.rejected = true
			tn.rejected++
			return
		}
	}
	// Open until finish, and never blocking: unbounded or shed-oldest.
	if s.tr.On() {
		s.timed("queue.enqueue", &s.enqueueNs, func() { _ = tn.q.Enqueue(r) })
	} else {
		_ = tn.q.Enqueue(r)
	}
}

// backlog is the number of requests accepted but not yet served or shed.
func (s *tenants) backlog() int {
	n := 0
	for _, tn := range s.ts {
		n += tn.sent - tn.rejected - int(tn.q.Shed()) - int(tn.served.Load())
	}
	return n
}

func (s *tenants) prime() error {
	for i := range s.ts {
		s.send(loadgen.Arrival{Src: i}, time.Now(), false)
	}
	return s.quiesce()
}

// quiesce waits until every request sent so far was served, shed or
// rejected.
func (s *tenants) quiesce() error {
	if !waitUntil(func() bool { return s.backlog() <= 0 }) {
		return fmt.Errorf("%d requests unanswered after %v", s.backlog(), drainTimeout)
	}
	return nil
}

func (s *tenants) completed() uint64 {
	var n uint64
	for _, tn := range s.ts {
		n += tn.served.Load()
	}
	return n
}

func (s *tenants) drive(d time.Duration, seed int64, win *windowEdges) error {
	measured := win != nil
	srcs := make([]loadgen.Source, len(s.ts))
	for i, tn := range s.ts {
		srcs[i] = tn.spec.Load
	}
	sched := loadgen.Schedule(seed, d, srcs)
	if measured {
		s.win = &tenantWindow{reqs: make([][]*treq, len(s.ts)), from: s.now(), cursorAt: s.col.Snapshot(^uint64(0)).Cursor}
		for _, tn := range s.ts {
			s.win.shedAt = append(s.win.shedAt, tn.q.Shed())
		}
		win.start()
	}
	start := time.Now()
	lastSample := time.Duration(-1)
	late := loadgen.Play(start, sched, func(i int, a loadgen.Arrival, due time.Time) {
		s.send(a, due, measured)
		if measured && a.At-lastSample >= backlogEvery {
			lastSample = a.At
			s.win.backlog = append(s.win.backlog, backlogPoint{at: a.At, n: s.backlog()})
		}
	})
	if rest := d - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	if measured {
		win.end()
		s.win.late = late
		s.win.to = s.now()
		s.win.cursorEnd = s.col.Snapshot(^uint64(0)).Cursor
		s.win.backlog = append(s.win.backlog, backlogPoint{at: d, n: s.backlog()})
	}
	return s.quiesce()
}

func (s *tenants) execs() []*core.Exec {
	var out []*core.Exec
	for _, tn := range s.ts {
		out = append(out, tn.t.Exec())
	}
	return out
}

func (s *tenants) pools() []platform.ContextPool { return []platform.ContextPool{s.pool} }

func (s *tenants) finish() (*outcome, error) {
	start := time.Now()
	for _, tn := range s.ts {
		tn.q.Close()
	}
	for _, tn := range s.ts {
		if err := waitExec(tn.t.Exec()); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", tn.spec.Name, err)
		}
	}
	out := &outcome{drain: time.Since(start)}
	s.stopOps()
	if s.win == nil { // a set-up repetition: nothing was measured
		return out, nil
	}

	// Every request of the window was served exactly once, or rejected at
	// admission, or shed by its queue's declared policy; nothing else.
	var victim []float64
	for i, tn := range s.ts {
		unserved := 0
		for _, r := range s.win.reqs[i] {
			out.attempted++
			switch n := r.n.Load(); {
			case r.rejected:
				out.refused++
				if n != 0 {
					out.failed++
					out.problems = append(out.problems, fmt.Sprintf("tenant %s served a request it had rejected", tn.spec.Name))
				}
			case n == 0:
				unserved++
			case n > 1:
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("tenant %s served one request %d times", tn.spec.Name, n))
			default:
				if tn.spec.Victim {
					victim = append(victim, float64(r.done-r.due)/1e6)
				}
			}
		}
		shed := int(tn.q.Shed() - s.win.shedAt[i])
		out.refused += shed
		if unserved != shed {
			lost := max(unserved, shed) - min(unserved, shed)
			out.failed += lost
			out.problems = append(out.problems, fmt.Sprintf(
				"tenant %s: %d requests unserved but its queue shed %d", tn.spec.Name, unserved, shed))
		}
	}
	out.respN = len(victim)
	out.resp = percentiles(victim)
	out.late, out.backlog = s.win.late, s.win.backlog

	if d := s.dropped.Load(); d != 0 {
		out.problems = append(out.problems, fmt.Sprintf("the collector dropped %d events", d))
	}
	entries, err := replay.ReadLog(bytes.NewReader(s.log.Bytes()))
	if err != nil || len(entries) != s.rec.Count() {
		out.problems = append(out.problems, fmt.Sprintf(
			"replay log: recorded %d entries, read back %d (%v)", s.rec.Count(), len(entries), err))
	}
	if s.tr != nil {
		s.traceRequests()
	}
	return out, nil
}

// traceRequests turns the window's request stamps into spans: a request
// span from due to done with its queue and exec children, and under the
// victim's exec spans the Begin, work and End calls.
func (s *tenants) traceRequests() {
	var id int64
	for i, tn := range s.ts {
		for _, r := range s.win.reqs[i] {
			id++
			if r.n.Load() != 1 || r.taken < s.win.from {
				continue
			}
			s.beginNs.add(r.begun - r.taken)
			s.workNs.add(r.ended - r.begun)
			s.endNs.add(r.done - r.ended)
			reqID, execID := s.tr.NewID(), s.tr.NewID()
			s.span("request", reqID, 0, id, r.due, r.done)
			s.span("request.queue", 0, reqID, id, r.due, r.taken)
			s.span("request.exec", execID, reqID, id, r.taken, r.done)
			if tn.spec.Victim {
				s.span("core.begin", 0, execID, id, r.taken, r.begun)
				s.span("stage.work", 0, execID, id, r.begun, r.ended)
				s.span("core.end", 0, execID, id, r.ended, r.done)
			}
		}
	}
}

func (s *tenants) layers(v values, items float64) {
	var peak int
	var shed, grants, revokes, rejected uint64
	var sojourn float64
	for _, tn := range s.ts {
		peak = max(peak, tn.q.Peak())
		shed += tn.q.Shed()
		sojourn += tn.q.MeanSojourn()
		grants += tn.t.Grants()
		revokes += tn.t.Revokes()
		rejected += tn.t.Rejected()
	}
	v["queue.peak_len"] = float64(peak)
	v["queue.shed"] = float64(shed)
	v["queue.sojourn_ms_mean"] = sojourn / float64(len(s.ts)) * 1e3
	v["tenancy.grants"], v["tenancy.revokes"], v["tenancy.rejected"] = float64(grants), float64(revokes), float64(rejected)
	v["tenancy.tick_us_p50"], v["tenancy.tick_us_p99"] = s.tickNs.percentile(50)/1e3, s.tickNs.percentile(99)/1e3
	v["metrics.snapshot_us_p50"] = s.snapshotNs.percentile(50) / 1e3
	v["metrics.dropped"] = float64(s.dropped.Load())
	if s.win != nil && s.win.to > s.win.from {
		v["metrics.points_per_s"] = float64(s.win.cursorEnd-s.win.cursorAt) / (float64(s.win.to-s.win.from) / 1e9)
	}
	v["admin.series_ms_p50"], v["admin.series_ms_p95"] = s.seriesNs.percentile(50)/1e6, s.seriesNs.percentile(95)/1e6
	v["admin.stats_ms_p50"] = s.statsNs.percentile(50) / 1e6
	v["admin.series_bytes_mean"] = s.seriesBytes.mean()
	v["admin.errors"] = float64(s.scrapeErrors.Load())
	v["replay.record_us_p50"] = s.recordNs.percentile(50) / 1e3
	if n := s.rec.Count(); n > 0 {
		v["replay.bytes_per_entry"] = float64(s.log.Len()) / float64(n)
	}
	if s.tr == nil || s.win == nil {
		return
	}
	v["tenancy.admit_ns_p50"] = s.admitNs.percentile(50)
	v["queue.enqueue_ns_p50"], v["queue.enqueue_ns_p99"] = s.enqueueNs.percentile(50), s.enqueueNs.percentile(99)
	v["core.begin_ns_p50"], v["core.begin_ns_p99"] = s.beginNs.percentile(50), s.beginNs.percentile(99)
	v["core.end_ns_p50"], v["core.end_ns_p99"] = s.endNs.percentile(50), s.endNs.percentile(99)
	v["stage.work_ns_p50"] = s.workNs.percentile(50)

	// The monitor's view of the victim's stage against the benchmark's own
	// stamps: mean Begin-to-End time, and completions per second of the
	// time the stage had work in hand (the monitor's rate leaves idle gaps
	// out, so the benchmark's must too).
	for i, tn := range s.ts {
		if !tn.spec.Victim {
			continue
		}
		var work []float64
		var busy [][2]int64
		for _, r := range s.win.reqs[i] {
			if r.n.Load() == 1 {
				work = append(work, float64(r.ended-r.begun))
				busy = append(busy, [2]int64{r.begun, r.ended})
			}
		}
		st := tn.t.Exec().Report().Root.Stage("serve")
		if st == nil || len(work) == 0 {
			continue
		}
		v["monitor.exec_time_rel_err"] = relErr(st.MeanExecTime, stat.Mean(work)/1e9)
		if covered := spans.Covered(busy, 0, math.MaxInt64); covered > 0 {
			own := float64(len(work)) / (float64(covered) / 1e9)
			v["monitor.rate_rel_err"] = relErr(s.victimRates.mean(), own)
		}
	}
}

func (s *tenants) stopOps() {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	s.ops.Wait()
}

func (s *tenants) shutdown() {
	s.stopOps()
	for _, rel := range s.release {
		rel()
	}
	s.release = nil
	if s.web != nil {
		s.web.close()
		s.web = nil
	}
	s.arb.Close()
	s.col.Close()
}
