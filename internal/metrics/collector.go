package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
	"dope/internal/stats"
)

// DecisionEntry is one row of the live-ops decision log: a mechanism
// reconfiguration, an in-place resize, the suspend/resume/drained phases of
// an alternative switch, a failure/stall/shed event, or a tenant arbitration
// action, normalized to a flat shape the UI and the
// /series endpoint can render uniformly.
type DecisionEntry struct {
	Seq       uint64  `json:"seq"`
	T         float64 `json:"t"`
	Kind      string  `json:"kind"`
	Nest      string  `json:"nest,omitempty"`
	Stage     string  `json:"stage,omitempty"`
	Mechanism string  `json:"mechanism,omitempty"`
	From      int     `json:"from,omitempty"`
	To        int     `json:"to,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// TenantSample is one tenant's arbitration state at a sample instant — the
// one tenant row: the arbiter builds it (tenancy.TenantStatus is this type),
// GET /tenants and the /series snapshot serve it, dope-top renders it. It
// lives here because tenancy imports metrics, never the reverse.
type TenantSample struct {
	Name      string  `json:"name"`
	State     string  `json:"state"`
	Priority  int     `json:"priority"`
	Weight    float64 `json:"weight"`
	Quota     int     `json:"quota"`
	Used      int     `json:"used"`
	OverQuota int     `json:"overQuota"`
	Peak      int     `json:"peak"`
	Blocked   int     `json:"blocked"`
	Acquires  uint64  `json:"acquires"`
	Watts     float64 `json:"watts"`
	Shed      uint64  `json:"shed"`
	Rejected  uint64  `json:"rejected"`
	Grants    uint64  `json:"grants"`
	Revokes   uint64  `json:"revokes"`
	Err       string  `json:"err,omitempty"`
}

// Snapshot is the windowed view the /series endpoint serves. Cursor is the
// collector's sequence high-water mark: pass it back as the since argument
// to fetch only what arrived after this snapshot. Dropped counts events the
// throttled writer discarded because the consumer side fell behind.
type Snapshot struct {
	Now     float64                  `json:"now"`
	Cursor  uint64                   `json:"cursor"`
	Dropped uint64                   `json:"dropped"`
	Series  map[string][]stats.Point `json:"series"`
	Events  []DecisionEntry          `json:"events,omitempty"`
	Tenants []TenantSample           `json:"tenants,omitempty"`
}

// Collector subscribes to an executive's report and trace streams and
// maintains ring-buffered time series for the live ops surface: per-stage
// rate, queue sojourn, extent, load, and robustness counters; process-level
// context occupancy, rejections, and power draw; per-tenant quotas and
// arbitration decisions.
//
// Backpressure policy, in two layers, so the executive never blocks on a
// slow ops consumer:
//
//   - Series points land in fixed-capacity PointRings (drop-oldest): a
//     consumer that falls more than a window behind loses the oldest
//     samples, detectable from the sequence gap.
//   - Trace events pass through a bounded channel drained by a single
//     writer goroutine; when the channel is full ObserveEvent drops the
//     event and counts it in Dropped rather than blocking the control
//     loop's flush.
type Collector struct {
	window int

	// seq is the global sample sequence; every point and decision entry
	// gets the next value, so one cursor orders the whole snapshot.
	seq     atomic.Uint64
	dropped atomic.Uint64
	// live is set once a real trace feed is attached; it suppresses the
	// decisions ObserveReport synthesizes from config diffs (used when
	// replaying JSONL logs, which carry no events).
	live atomic.Bool

	mu      sync.Mutex
	series  map[string]*stats.PointRing
	events  []DecisionEntry // ring, evHead oldest, evN live
	evHead  int
	evN     int
	tenants []TenantSample
	lastCfg string
	now     float64

	evCh      chan core.Event
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewCollector returns a running collector holding at most window points
// per series and window decision-log entries. Window below 16 is raised to
// 16. Close releases the writer goroutine.
func NewCollector(window int) *Collector {
	if window < 16 {
		window = 16
	}
	c := &Collector{
		window: window,
		series: map[string]*stats.PointRing{},
		events: make([]DecisionEntry, window),
		evCh:   make(chan core.Event, 256),
		done:   make(chan struct{}),
	}
	c.wg.Add(1)
	go c.writer()
	return c
}

// Close stops the writer goroutine after draining anything already queued.
func (c *Collector) Close() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
}

// Dropped returns how many events the throttled writer has discarded.
func (c *Collector) Dropped() uint64 { return c.dropped.Load() }

// ObserveEvent ingests one trace event without ever blocking: when the
// writer's channel is full the event is dropped and counted. Safe to use
// directly as a core.Exec trace tap.
func (c *Collector) ObserveEvent(ev core.Event) {
	c.live.Store(true)
	select {
	case c.evCh <- ev:
	default:
		c.dropped.Add(1)
	}
}

// writer drains the event channel onto the decision ring.
func (c *Collector) writer() {
	defer c.wg.Done()
	for {
		select {
		case ev := <-c.evCh:
			c.recordEvent(ev)
		case <-c.done:
			for {
				select {
				case ev := <-c.evCh:
					c.recordEvent(ev)
				default:
					return
				}
			}
		}
	}
}

func (c *Collector) recordEvent(ev core.Event) {
	d := DecisionEntry{
		T:         ev.Time.Seconds(),
		Kind:      ev.Kind.String(),
		Nest:      ev.Nest,
		Stage:     ev.Stage,
		Mechanism: ev.Mechanism,
		From:      ev.FromExtent,
		To:        ev.ToExtent,
	}
	switch {
	case ev.Err != nil:
		d.Detail = ev.Err.Error()
	case ev.Kind == core.EventShed:
		d.Detail = fmt.Sprintf("+%d items (total %d)", ev.ShedItems, ev.ShedTotal)
	case ev.Kind == core.EventTaskStall:
		d.Detail = fmt.Sprintf("stalled %.2fs (policy %v)", ev.Stalled.Seconds(), ev.Policy)
	case ev.Kind == core.EventTaskFailure:
		d.Detail = fmt.Sprintf("failures %d, consecutive %d (policy %v)",
			ev.Failures, ev.ConsecFailures, ev.Policy)
	case ev.Kind == core.EventDrained:
		d.Detail = fmt.Sprintf("%.1fms after its suspend", ev.Drain.Seconds()*1e3)
	case ev.Kind == core.EventReconfigure && ev.Config != nil:
		d.Detail = fmt.Sprintf("extents %v", ev.Config.Extents)
	}
	c.mu.Lock()
	c.pushEventLocked(d)
	c.mu.Unlock()
}

// RecordDecision appends an externally-produced decision entry (e.g. a
// tenant arbiter grant or revocation). Seq is assigned here; T is the
// caller's clock.
func (c *Collector) RecordDecision(d DecisionEntry) {
	c.mu.Lock()
	c.pushEventLocked(d)
	c.mu.Unlock()
}

func (c *Collector) pushEventLocked(d DecisionEntry) {
	d.Seq = c.seq.Add(1)
	if c.evN == len(c.events) {
		c.events[c.evHead] = d
		c.evHead = (c.evHead + 1) % len(c.events)
	} else {
		c.events[(c.evHead+c.evN)%len(c.events)] = d
		c.evN++
	}
}

// observe appends one point to the named series, creating the ring on first
// use.
func (c *Collector) observeLocked(name string, t, v float64) {
	r := c.series[name]
	if r == nil {
		r = stats.NewPointRing(c.window)
		c.series[name] = r
	}
	r.Append(stats.Point{Seq: c.seq.Add(1), T: t, V: v})
}

// ObserveReport ingests one monitoring snapshot: per-stage gauges and
// counters for every stage in the nest tree, process-level occupancy and
// rejection totals, and power draw when the platform exposes it. When no
// live trace feed is attached (replay of a JSONL log), configuration diffs
// between consecutive reports are synthesized into the decision log so
// post-mortems still show when the executive moved.
func (c *Collector) ObserveReport(r *core.Report) {
	if r == nil {
		return
	}
	t := r.Time.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
	c.observeLocked("proc/contexts", t, float64(r.Contexts))
	c.observeLocked("proc/busy", t, float64(r.BusyContexts))
	c.observeLocked("proc/blocked", t, float64(r.BlockedAcquires))
	c.observeLocked("proc/rejected", t, float64(r.Rejected))
	if r.Features != nil {
		if w, err := r.Features.Value(platform.FeatureSystemPower); err == nil {
			c.observeLocked("power/watts", t, w)
		}
	}
	c.walkNestLocked(t, r.Root)
	if fp := configFingerprint(r.Config); fp != c.lastCfg {
		if c.lastCfg != "" && !c.live.Load() {
			c.pushEventLocked(DecisionEntry{
				T: t, Kind: core.EventReconfigure.String(),
				Detail: fp,
			})
		}
		c.lastCfg = fp
	}
}

func (c *Collector) walkNestLocked(t float64, n *core.NestReport) {
	if n == nil {
		return
	}
	for i := range n.Stages {
		st := &n.Stages[i]
		base := "stage/" + n.Path + "/" + st.Name + "/"
		c.observeLocked(base+"rate", t, st.Rate)
		c.observeLocked(base+"sojourn", t, st.QueueSojourn)
		c.observeLocked(base+"extent", t, float64(st.Extent))
		c.observeLocked(base+"workers", t, float64(st.Workers))
		c.observeLocked(base+"load", t, st.Load)
		c.observeLocked(base+"stalls", t, float64(st.Stalls))
		c.observeLocked(base+"shed", t, float64(st.Shed))
		c.observeLocked(base+"failures", t, float64(st.Failures))
		c.observeLocked(base+"zombies", t, float64(st.Zombies))
	}
	// Deterministic child order keeps replayed sequence numbers stable.
	if len(n.Children) > 0 {
		keys := make([]string, 0, len(n.Children))
		for k := range n.Children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c.walkNestLocked(t, n.Children[k])
		}
	}
}

// configFingerprint renders a config tree to a short stable string, the
// cheap equality check behind synthesized reconfigure entries.
func configFingerprint(cfg *core.Config) string {
	if cfg == nil {
		return ""
	}
	var b strings.Builder
	var walk func(prefix string, c *core.Config)
	walk = func(prefix string, c *core.Config) {
		fmt.Fprintf(&b, "%salt=%d extents=%v;", prefix, c.Alt, c.Extents)
		if len(c.Children) > 0 {
			keys := make([]string, 0, len(c.Children))
			for k := range c.Children {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(k+":", c.Children[k])
			}
		}
	}
	walk("", cfg)
	return b.String()
}

// ObserveTenants ingests one arbiter sweep: the latest per-tenant state
// (served verbatim in snapshots) plus per-tenant quota/usage/pressure
// series.
func (c *Collector) ObserveTenants(t float64, samples []TenantSample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	c.tenants = append(c.tenants[:0], samples...)
	for _, s := range samples {
		base := "tenant/" + s.Name + "/"
		c.observeLocked(base+"quota", t, float64(s.Quota))
		c.observeLocked(base+"used", t, float64(s.Used))
		c.observeLocked(base+"watts", t, s.Watts)
		c.observeLocked(base+"shed", t, float64(s.Shed))
		c.observeLocked(base+"rejected", t, float64(s.Rejected))
	}
}

// Snapshot returns everything newer than since (0 = the whole held window):
// per-series points, decision-log entries, and the latest tenant state.
// Series with no new points are omitted.
func (c *Collector) Snapshot(since uint64) *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &Snapshot{
		Now:     c.now,
		Cursor:  c.seq.Load(),
		Dropped: c.dropped.Load(),
		Series:  map[string][]stats.Point{},
	}
	for name, r := range c.series {
		if pts := r.Since(since); len(pts) > 0 {
			out.Series[name] = pts
		}
	}
	for i := 0; i < c.evN; i++ {
		d := c.events[(c.evHead+i)%len(c.events)]
		if d.Seq > since {
			out.Events = append(out.Events, d)
		}
	}
	if len(c.tenants) > 0 {
		out.Tenants = append([]TenantSample(nil), c.tenants...)
	}
	return out
}

// Attach subscribes the collector to a live executive: a trace tap feeds
// the decision log and a sampler goroutine calls ObserveReport every
// interval until the executive finishes or the returned release is called.
// The executive's Begin/End hot path is untouched — sampling happens on the
// collector's own goroutine against the same Report() the control loop
// already builds.
func (c *Collector) Attach(e *core.Exec, interval time.Duration) (release func()) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	c.live.Store(true)
	untap := e.TapTrace(c.ObserveEvent)
	stop := make(chan struct{})
	var stopOnce sync.Once
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.ObserveReport(e.Report())
			case <-e.Done():
				c.ObserveReport(e.Report())
				return
			case <-stop:
				return
			case <-c.done:
				return
			}
		}
	}()
	return func() {
		stopOnce.Do(func() {
			untap()
			close(stop)
		})
	}
}
