package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
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
	"dope/internal/mechanism"
	"dope/internal/metrics"
	"dope/internal/platform"
	"dope/internal/power"
)

// server is one of the internal/apps applications behind its request
// queue, driven open loop: transcode-steady and ferret-goals.
type server struct {
	sc   *Scenario
	tr   *spans.Tracer
	srv  *apps.Server
	exec *core.Exec
	pool platform.ContextPool

	// The admin surface, served on loopback when the scenario has a goal
	// schedule: goals are switched the way an administrator would.
	web    *loopback
	mechs  *mechTimes
	putNs  samples
	events eventLog

	// Accounting. sent and nextID belong to the generator goroutine.
	// doneBase is how many requests earlier recorders (set-up, warm-up)
	// answered; the live one is srv.Resp.
	sent     int
	nextID   int
	doneBase uint64
	win      *openWindow
}

// openWindow is the accounting of one measured open-loop window.
type openWindow struct {
	sent    int
	late    []time.Duration
	backlog []backlogPoint
}

func buildServer(sc *Scenario, tr *spans.Tracer) (system, error) {
	s := &server{sc: sc, tr: tr, srv: apps.NewServer(nil), mechs: &mechTimes{tr: tr}}
	var spec *core.NestSpec
	var initial *core.Config
	switch sc.App.Name {
	case "transcode":
		spec = apps.NewTranscode(s.srv, apps.TranscodeParams{Frames: sc.App.Frames, UnitsPerFrame: sc.App.UnitsPerFrame})
	case "ferret":
		spec = apps.NewFerret(s.srv, apps.FerretParams{UnitsBase: sc.App.UnitsBase})
		if len(sc.App.InitialExtents) > 0 {
			initial = &core.Config{Alt: 0, Extents: sc.App.InitialExtents}
		}
	}
	if tr != nil {
		instrument(spec, tr)
	}
	opts := []core.Option{
		core.WithContexts(sc.Contexts),
		core.WithControlInterval(time.Duration(sc.ControlIntervalMs) * time.Millisecond),
		core.WithTrace(s.events.observe),
	}
	if initial != nil {
		opts = append(opts, core.WithInitialConfig(initial))
	}
	if sc.Mechanism != nil {
		m, err := s.mechanism(*sc.Mechanism)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithMechanism(m))
	}
	e, err := core.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	s.exec, s.pool = e, e.Contexts()
	if g := sc.Goals; g != nil {
		// The power substrate of the paper's third goal: a linear model
		// over busy contexts read through a rate-limited meter.
		model := power.NewDefaultModel(sc.Contexts)
		pdu := power.NewPDU(func() float64 { return model.Watts(e.Contexts().Busy()) },
			time.Duration(g.PDUPeriodMs)*time.Millisecond, e.Clock())
		e.Features().Register(platform.FeatureSystemPower, pdu.FeatureCB())
		factories := map[string]admin.MechanismFactory{}
		for _, phase := range g.Schedule {
			ms := phase.Mechanism
			if _, err := s.mechanism(ms); err != nil {
				return nil, err
			}
			factories[ms.Name] = func() core.Mechanism {
				m, _ := s.mechanism(ms) // checked above
				return m
			}
		}
		s.web, err = serveLoopback(admin.Handler(e, factories))
		if err != nil {
			return nil, err
		}
	}
	if err := e.Start(); err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

// mechanism builds the named mechanism; in the traced run it is wrapped so
// that every Reconfigure call is timed.
func (s *server) mechanism(ms MechSpec) (core.Mechanism, error) {
	threads := ms.Threads
	if threads == 0 {
		threads = s.sc.Contexts
	}
	var m core.Mechanism
	switch ms.Name {
	case "wq-linear":
		m = &mechanism.WQLinear{Threads: threads, Mmax: ms.Mmax, Mmin: ms.Mmin, Qmax: ms.Qmax}
	case "load-proportional":
		m = &mechanism.LoadProportional{Threads: threads}
	case "tbf":
		m = &mechanism.TBF{Threads: threads, FusionThreshold: ms.FusionThreshold}
	case "tpc":
		share := 1.0
		if s.sc.Goals != nil {
			share = s.sc.Goals.PowerBudgetShare
		}
		m = &mechanism.TPC{Threads: threads, Budget: share * power.DefaultPeakWatts}
	default:
		return nil, fmt.Errorf("unknown mechanism %q", ms.Name)
	}
	if s.tr != nil {
		m = &timedMechanism{inner: m, times: s.mechs}
	}
	return m, nil
}

// mechTimes accumulates what the mechanism wrapper sees across every
// mechanism instance of a run.
type mechTimes struct {
	tr      *spans.Tracer
	ns      samples
	calls   atomic.Uint64
	changes atomic.Uint64
}

// timedMechanism is the benchmark's wrapper around the real mechanism: it
// times each decision and counts the ones that change the configuration.
type timedMechanism struct {
	inner core.Mechanism
	times *mechTimes
}

func (m *timedMechanism) Name() string { return m.inner.Name() }

func (m *timedMechanism) Reconfigure(r *core.Report) *core.Config {
	current := r.Config.Clone() // mechanisms edit r.Config in place
	t := m.times
	start := t.tr.Now()
	cfg := m.inner.Reconfigure(r)
	end := t.tr.Now()
	t.ns.add(end - start)
	t.calls.Add(1)
	if t.tr.On() {
		t.tr.Add(spans.Span{Req: -1, Name: "mechanism.reconfigure", Start: start, End: end})
	}
	if cfg != nil {
		proposed := cfg.Clone()
		proposed.Normalize(r.Root.Spec)
		if !proposed.Equal(current) {
			t.changes.Add(1)
		}
	}
	return cfg
}

// instrument installs the traced run's stage wrappers by walking the nest
// tree and wrapping each alternative's Make: every functor it returns is
// timed as a stage span. Where Make receives the request (a nested nest,
// instantiated once per request) the stage spans hang off that request's
// request.exec span, next to its request.queue span, under a request span
// running from when the request was due to when its last stage left. A
// root nest's Make receives nothing, so its stage spans carry no request.
func instrument(spec *core.NestSpec, tr *spans.Tracer) {
	for _, alt := range spec.Alts {
		alt := alt
		inner := alt.Make
		alt.Make = func(item any) (*core.AltInstance, error) {
			inst, err := inner(item)
			if err != nil || inst == nil {
				return inst, err
			}
			req, _ := item.(*apps.Request)
			if req == nil {
				for i := range inst.Stages {
					inst.Stages[i].Fn = timedStage(tr, "stage."+spec.Name+"."+alt.Stages[i].Name, 0, -1, false, inst.Stages[i].Fn)
				}
				return inst, nil
			}
			if !tr.On() {
				return inst, nil
			}
			made := tr.Now()
			reqID, execID := tr.NewID(), tr.NewID()
			due := tr.At(req.Arrived)
			tr.Add(spans.Span{Parent: reqID, Req: int64(req.ID), Name: "request.queue", Start: due, End: made})
			var left atomic.Int32
			left.Store(int32(len(inst.Stages)))
			for i := range inst.Stages {
				st := &inst.Stages[i]
				st.Fn = timedStage(tr, "stage."+spec.Name+"."+alt.Stages[i].Name, execID, int64(req.ID), true, st.Fn)
				fini := st.Fini
				st.Fini = func() {
					if fini != nil {
						fini()
					}
					if left.Add(-1) == 0 {
						end := tr.Now()
						tr.Add(spans.Span{ID: execID, Parent: reqID, Req: int64(req.ID), Name: "request.exec", Start: made, End: end})
						tr.Add(spans.Span{ID: reqID, Req: int64(req.ID), Name: "request", Start: due, End: end})
					}
				}
			}
			return inst, nil
		}
		for i := range alt.Stages {
			if alt.Stages[i].Nest != nil {
				instrument(alt.Stages[i].Nest, tr)
			}
		}
	}
}

// timedStage wraps one stage functor so that each call is a span. A
// request's own stages are recorded to the end once its trace has begun
// (always), so no request.exec span is left with part of its children; a
// root stage follows the tracer's switch call by call.
func timedStage(tr *spans.Tracer, name string, parent uint64, req int64, always bool, fn core.Functor) core.Functor {
	return func(w *core.Worker) core.Status {
		if !always && !tr.On() {
			return fn(w)
		}
		start := tr.Now()
		st := fn(w)
		tr.Add(spans.Span{Parent: parent, Req: req, Name: name, Start: start, End: tr.Now()})
		return st
	}
}

func (s *server) submit(due time.Time) {
	s.nextID++
	s.sent++
	// The queue is unbounded and open until finish: the enqueue cannot fail.
	_ = s.srv.Work.Enqueue(&apps.Request{ID: s.nextID, Size: 1, Arrived: due})
}

func (s *server) prime() error {
	if g := s.sc.Goals; g != nil {
		if err := s.enterPhase(g.Schedule[0]); err != nil {
			return err
		}
	}
	s.submit(time.Now())
	return s.quiesce()
}

// quiesce waits until every request sent so far has been answered.
func (s *server) quiesce() error {
	if !waitUntil(func() bool { return s.completed() >= uint64(s.sent) }) {
		return fmt.Errorf("%d of %d requests unanswered after %v", uint64(s.sent)-s.completed(), s.sent, drainTimeout)
	}
	return nil
}

func (s *server) completed() uint64 { return s.doneBase + s.srv.Resp.Count() }

func (s *server) drive(d time.Duration, seed int64, win *windowEdges) error {
	sched := loadgen.Schedule(seed, d, s.sc.Load)
	measured := win != nil
	if measured {
		// Nothing is in flight (every drive ends quiesced), so no worker
		// is reading the recorder: give the window a fresh one, and with
		// it response times of the window's requests only.
		s.doneBase += s.srv.Resp.Count()
		s.srv.Resp = &metrics.ResponseRecorder{}
		s.win = &openWindow{}
		win.start()
	}
	start := time.Now()
	var goals sync.WaitGroup
	var goalErr error
	if g := s.sc.Goals; g != nil && measured {
		goals.Add(1)
		go func() {
			defer goals.Done()
			goalErr = s.switchGoals(start, d)
		}()
	}
	sentBefore := s.sent
	lastSample := time.Duration(-1)
	late := loadgen.Play(start, sched, func(i int, a loadgen.Arrival, due time.Time) {
		s.submit(due)
		if measured && a.At-lastSample >= backlogEvery {
			lastSample = a.At
			s.win.backlog = append(s.win.backlog, backlogPoint{at: a.At, n: s.sent - int(s.completed())})
		}
	})
	if rest := d - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	goals.Wait()
	if measured {
		win.end()
		s.win.sent = s.sent - sentBefore
		s.win.late = late
		s.win.backlog = append(s.win.backlog, backlogPoint{at: d, n: s.sent - int(s.completed())})
	}
	if goalErr != nil {
		return goalErr
	}
	return s.quiesce()
}

// backlogEvery is how often the generator samples the backlog.
const backlogEvery = 100 * time.Millisecond

// switchGoals walks the goal schedule: the window is divided evenly into
// phases and each starts with a PUT /mechanism through the admin surface.
func (s *server) switchGoals(start time.Time, d time.Duration) error {
	g := s.sc.Goals
	phases := len(g.Schedule) * g.Rounds
	for i := 0; i < phases; i++ {
		if wait := time.Until(start.Add(d * time.Duration(i) / time.Duration(phases))); wait > 0 {
			time.Sleep(wait)
		}
		if err := s.enterPhase(g.Schedule[i%len(g.Schedule)]); err != nil {
			return err
		}
	}
	return nil
}

// enterPhase makes the phase's admin requests: its mechanism, then its
// configuration if it has one. The order matters: a mechanism that keeps
// extents from the alternative it last saw (TPC does) must be gone before
// the alternative changes under it, or its next decision indexes stages
// that no longer exist and panics in the control loop.
func (s *server) enterPhase(ph GoalPhase) error {
	if err := s.putMechanism(ph.Mechanism.Name); err != nil {
		return err
	}
	if len(ph.Config) > 0 {
		if _, err := s.web.do(http.MethodPut, "/config", bytes.NewReader(ph.Config)); err != nil {
			return fmt.Errorf("installing the configuration of goal %s: %w", ph.Mechanism.Name, err)
		}
	}
	return nil
}

func (s *server) putMechanism(name string) error {
	start := time.Now()
	body := bytes.NewReader([]byte(fmt.Sprintf(`{"name":%q}`, name)))
	_, err := s.web.do(http.MethodPut, "/mechanism", body)
	took := time.Since(start)
	if err != nil {
		return fmt.Errorf("switching goal to %s: %w", name, err)
	}
	s.putNs.add(int64(took))
	if s.tr.On() {
		end := s.tr.Now()
		s.tr.Add(spans.Span{Req: -1, Name: "admin.put_mechanism", Start: end - int64(took), End: end})
	}
	return nil
}

func (s *server) execs() []*core.Exec           { return []*core.Exec{s.exec} }
func (s *server) pools() []platform.ContextPool { return []platform.ContextPool{s.pool} }

func (s *server) finish() (*outcome, error) {
	start := time.Now()
	s.srv.Close()
	if err := waitExec(s.exec); err != nil {
		return nil, err
	}
	out := &outcome{drain: time.Since(start)}
	if s.win == nil { // a set-up repetition: nothing was measured
		return out, nil
	}
	// The app's own accounting is the only view of completions from
	// outside: the window's recorder must have seen each of the window's
	// requests exactly once, and the meter every request ever sent.
	out.attempted = s.win.sent
	answered := int(s.srv.Resp.Count())
	if answered != s.win.sent {
		out.failed = max(answered, s.win.sent) - min(answered, s.win.sent)
		out.problems = append(out.problems, fmt.Sprintf("window sent %d requests, %d were answered", s.win.sent, answered))
	}
	if total := int(s.srv.Meter.Total()); total != s.sent {
		out.problems = append(out.problems, fmt.Sprintf("sent %d requests in all, the meter counted %d completions", s.sent, total))
	}
	out.respN = answered
	out.resp = func(p float64) (float64, error) {
		sec, err := s.srv.Resp.Percentile(p)
		if err != nil {
			return 0, err
		}
		return sec * 1e3, stat.Supports(answered, p)
	}
	out.late, out.backlog = s.win.late, s.win.backlog
	return out, nil
}

func (s *server) layers(v values, items float64) {
	q := s.srv.Work
	v["queue.peak_len"] = float64(q.Peak())
	v["queue.sojourn_ms_mean"] = q.MeanSojourn() * 1e3
	v["queue.shed"] = float64(q.Shed())
	v["core.alt_switch_pause_ms_p50"] = s.events.pauseP50()
	v["admin.put_mechanism_ms_p50"] = s.putNs.percentile(50) / 1e6
	if s.tr == nil {
		return
	}
	v["mechanism.reconfigure_us_p50"] = s.mechs.ns.percentile(50) / 1e3
	v["mechanism.reconfigure_us_p99"] = s.mechs.ns.percentile(99) / 1e3
	calls := s.mechs.calls.Load()
	v["mechanism.calls"] = float64(calls)
	if calls > 0 {
		v["mechanism.change_share"] = float64(s.mechs.changes.Load()) / float64(calls)
	}
	// Nest self time: what a request's instantiation costs beyond its
	// stages — the part of request.exec no stage span covers.
	all := s.tr.Spans()
	self := spans.SelfTimes(all)
	var nest []float64
	for _, sp := range all {
		if sp.Name == "request.exec" {
			nest = append(nest, float64(self[sp.ID])/1e3)
		}
	}
	v["core.nest_self_us_p50"] = stat.PercentileLoose(nest, 50)
}

func (s *server) shutdown() {
	if s.web != nil {
		s.web.close()
	}
}

// loopback is an in-process HTTP server on a loopback port and the one
// client connection the benchmark talks to it through.
type loopback struct {
	srv    *http.Server
	client *http.Client
	base   string
	done   chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("admin surface: %w", err)
	}
	l := &loopback{
		srv:    admin.NewServer(ln.Addr().String(), h),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed at close
	}()
	return l, nil
}

// do makes one request and returns the response body.
func (l *loopback) do(method, path string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequest(method, l.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return raw, nil
}

func (l *loopback) close() {
	l.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}
