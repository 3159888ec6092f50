package core

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/monitor"
	"dope/internal/platform"
)

// Exec is the DoPE executive (the paper's DoPE-Executive, Figure 8). It
// owns the hardware-context pool, the monitors, the current configuration,
// and the reconfiguration protocol. Construct with New, launch with Start,
// and join with Wait — the Go spelling of DoPE::create / DoPE::destroy.
type Exec struct {
	root *NestSpec
	// name identifies this executive when several share a machine (the
	// tenancy arbiter registers each tenant's nest under its tenant name);
	// empty for a single-tenant process.
	name     string
	contexts platform.ContextPool
	features *platform.Features
	clock    platform.Clock
	// The Begin/End hot path's clock: nowNanos returns the current time as
	// unix nanoseconds consistent with clock.Now(). For the wall clock it
	// reads only the runtime's monotonic counter (roughly half the cost of
	// time.Now) and rebases it onto a wall epoch captured at construction;
	// virtual clocks go through the slowClock func instead.
	fastClock bool
	epochUnix int64 // clock.Now().UnixNano() at construction
	epochMono int64 // runtime nanotime() at construction
	slowClock func() int64
	mon       *monitor.Registry
	interval  time.Duration
	trace     func(Event)
	// tbuf batches trace events (trace.go): emitters enqueue, the control
	// and watchdog ticks plus drain boundaries flush in emission order,
	// and serve's shutdown flush runs after both tick loops have exited
	// (loopsWG) and before doneCh closes, so Wait returns with every event
	// delivered. Nil when no trace callback is installed.
	tbuf    *traceBuf
	loopsWG sync.WaitGroup

	// Trace taps (TapTrace): extra event consumers alongside the WithTrace
	// callback — the live-ops collector subscribes here without displacing
	// the application's own trace. The slice is copy-on-write under tapMu;
	// hasTap is the emit fast path's "any consumer at all?" check.
	tapMu  sync.Mutex
	taps   atomic.Pointer[[]traceTap]
	hasTap atomic.Bool
	tapSeq uint64

	// rejectedFn, when set (WithRejectedGauge), samples the admission
	// refusals charged to this executive — the tenancy layer's Admit
	// refusals — into Report.Rejected so recorders and mechanisms see the
	// shed work that never reached a stage queue.
	rejectedFn func() uint64

	mechMu sync.RWMutex
	mech   Mechanism

	// installMu serializes configuration installs (SetConfig vs. control
	// tick vs. a second SetConfig) and the registration of a new run's
	// worker groups, closing the load/compare/store and register/resize
	// races.
	installMu     sync.Mutex
	protocolCheck bool

	cfg     atomic.Pointer[Config]
	curRun  atomic.Pointer[run]
	stop    atomic.Bool
	started atomic.Bool
	doneCh  chan struct{}
	ctrlCh  chan struct{}
	// startAt holds the Start timestamp as unix nanoseconds; atomic
	// because Uptime/Report may run concurrently with Start.
	startAt atomic.Int64

	errMu  sync.Mutex
	runErr error

	reconfigs atomic.Uint64
	suspends  atomic.Uint64
	resizes   atomic.Uint64

	// Failure handling defaults; stage specs may override per stage (see
	// failure.go and StageSpec.OnFailure).
	failPolicy   FailurePolicy
	failBudget   int
	failWindow   time.Duration
	restartBase  time.Duration
	restartMax   time.Duration
	taskFailures atomic.Uint64

	// Stall tolerance (stall.go): the executive-wide invocation deadline
	// default, the drain timeout for suspensions, the watchdog's patrol
	// interval override, and the watchdog's registry of live worker groups.
	deadline     time.Duration
	drainTimeout time.Duration
	stallCheck   time.Duration
	taskStalls   atomic.Uint64
	watchMu      sync.Mutex
	watched      map[*workerGroup]struct{}
	shedSeen     map[monitor.Key]uint64
}

// run is one suspension domain: the lifetime of one instance of a root
// alternative. It holds the stage worker groups of the top-level nest so
// that extent-only reconfigurations can resize stages in place instead of
// suspending everything. A run is created by whoever makes it current —
// Start, or the install whose alternative switch suspends its predecessor —
// and instantiated by serve, which may start it while the predecessor still
// drains (see serve).
type run struct {
	// cfg is the configuration whose installation created the run; its Alt
	// is the alternative the run instantiates. switched marks a run created
	// by an alternative switch rather than by Start: instantiating it is an
	// EventResume. Both immutable.
	cfg      *Config
	switched bool

	suspend atomic.Bool
	// suspendAt is when suspension was requested (unix nanoseconds); the
	// drain watchdog and EventDrained measure the drain against it.
	suspendAt atomic.Int64
	// suspendCh closes once suspension has been requested and EventSuspend
	// emitted; done closes when every group has exited and its Fini has run.
	// status and err are runNest's result, written before done closes.
	suspendCh chan struct{}
	done      chan struct{}
	status    Status
	err       error

	mu     sync.Mutex
	groups []*workerGroup
}

func newRun(cfg *Config, switched bool) *run {
	return &run{cfg: cfg, switched: switched, suspendCh: make(chan struct{}), done: make(chan struct{})}
}

func (r *run) suspending() bool { return r.suspend.Load() }

// drainAge reports how long the run has been draining at now, or zero when
// it is not suspending.
func (r *run) drainAge(now time.Time) time.Duration {
	if !r.suspending() {
		return 0
	}
	at := r.suspendAt.Load()
	if at == 0 {
		return 0 // the request is landing; suspendAt follows the flag
	}
	return now.Sub(time.Unix(0, at))
}

// finished reports whether the run has ended with its input exhausted (or
// failed to instantiate) rather than suspended.
func (r *run) finished() bool {
	select {
	case <-r.done:
		return r.status == Finished
	default:
		return false
	}
}

// cancelAll closes every registered top-level slot's Done channel so
// cooperative functors observe the drain request without polling. Nested
// groups are not registered here; they drain naturally with their parent's
// current work item (the same scoping as Worker.Suspending), and the drain
// watchdog covers the ones that do not.
func (r *run) cancelAll() {
	r.mu.Lock()
	groups := r.groups
	r.mu.Unlock()
	for _, g := range groups {
		g.cancelSlots()
	}
}

// setGroups registers the top-level stage worker groups. Called with the
// executive's installMu held so registration cannot interleave with a
// resize.
func (r *run) setGroups(gs []*workerGroup) {
	r.mu.Lock()
	r.groups = gs
	r.mu.Unlock()
}

// resizeOp describes one in-place stage resize for counters and traces.
type resizeOp struct {
	stage    string
	from, to int
}

// resize steers each registered group toward cfg's extents. Groups spawned
// under a different alternative are skipped (an alternative change goes
// through suspension, never through here), as is a run that is already
// suspending — its slots are draining, and its successor adopts cfg's
// extents when it registers its groups.
func (r *run) resize(cfg *Config) []resizeOp {
	if r.suspending() {
		return nil
	}
	r.mu.Lock()
	groups := r.groups
	r.mu.Unlock()
	var ops []resizeOp
	for i, g := range groups {
		if g.altIdx != cfg.Alt {
			continue
		}
		want := g.st.clampExtent(cfg.Extent(i))
		if from, changed := g.resize(want); changed {
			ops = append(ops, resizeOp{stage: g.st.Name, from: from, to: want})
		}
	}
	return ops
}

// Option configures an Exec.
type Option func(*Exec)

// WithContexts sets the number of hardware contexts (default 24, the
// paper's evaluation machine).
func WithContexts(n int) Option {
	return func(e *Exec) { e.contexts = platform.NewContexts(n) }
}

// WithContextPool installs a caller-owned context pool, letting several
// executives share one platform. The pool may be a *platform.Contexts
// (direct sharing) or a *platform.TenantPool (a quota-bounded view granted
// by a tenancy arbiter).
func WithContextPool(p platform.ContextPool) Option {
	return func(e *Exec) {
		if p != nil {
			e.contexts = p
		}
	}
}

// WithName sets the executive's tenant identity: the name shows up on
// reports, admin surfaces, and run errors so that a machine running many
// nests can attribute behavior to the tenant that caused it.
func WithName(name string) Option {
	return func(e *Exec) { e.name = name }
}

// WithMechanism installs the adaptation mechanism. A nil mechanism leaves
// the configuration static (the baseline mode of the evaluation).
func WithMechanism(m Mechanism) Option {
	// Options run inside NewExec on a not-yet-shared Exec; the construction
	// phase is invisible to lockcheck because the fresh value lives in the
	// caller.
	return func(e *Exec) { e.mech = m } //dopevet:ignore lockcheck option applied in NewExec before the Exec escapes
}

// WithControlInterval sets how often the executive consults the mechanism.
func WithControlInterval(d time.Duration) Option {
	return func(e *Exec) {
		if d > 0 {
			e.interval = d
		}
	}
}

// WithMonitorAlpha sets the smoothing factor of the monitors' EWMAs.
func WithMonitorAlpha(alpha float64) Option {
	return func(e *Exec) { e.mon = monitor.NewRegistry(alpha) }
}

// WithClock substitutes the clock (tests, simulation).
func WithClock(c platform.Clock) Option {
	return func(e *Exec) {
		if c != nil {
			e.clock = c
		}
	}
}

// WithProtocolCheck arms the runtime Begin/End misuse detector: a functor
// that calls Begin twice without an intervening End, calls End without a
// Begin, or enters RunNest while holding a platform context panics with a
// "dope: protocol violation" message instead of silently corrupting the
// monitors. The panic is recovered by the worker loop and surfaces as the
// run's error. Also enabled by DOPE_DEBUG=1 in the environment. The static
// counterpart is cmd/dope-vet.
func WithProtocolCheck() Option {
	return func(e *Exec) { e.protocolCheck = true }
}

// WithTrace installs a callback that receives executive events
// (reconfigurations, suspensions, completion). The callback must be fast
// and must not call back into the Exec.
func WithTrace(fn func(Event)) Option {
	return func(e *Exec) { e.trace = fn }
}

// WithRejectedGauge registers a sampler for the admission refusals charged
// to this executive. A multi-tenant arbiter wires the tenant's Admit-refusal
// counter here so Report.Rejected (and therefore recorded replay logs and
// the live-ops series) carries the arrivals that were turned away before any
// stage queue saw them.
func WithRejectedGauge(fn func() uint64) Option {
	return func(e *Exec) { e.rejectedFn = fn }
}

// WithInitialConfig sets the starting configuration (normalized against the
// root spec). Without it the executive starts from DefaultConfig.
func WithInitialConfig(cfg *Config) Option {
	return func(e *Exec) {
		if cfg != nil {
			e.cfg.Store(cfg.Clone())
		}
	}
}

// WithFeatures installs a caller-owned platform feature registry.
func WithFeatures(f *platform.Features) Option {
	return func(e *Exec) {
		if f != nil {
			e.features = f
		}
	}
}

// DefaultContexts is the size of the paper's evaluation platform.
const DefaultContexts = 24

// New validates the spec tree and constructs an executive.
func New(root *NestSpec, opts ...Option) (*Exec, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	e := &Exec{
		root:        root,
		clock:       platform.WallClock{},
		interval:    10 * time.Millisecond,
		doneCh:      make(chan struct{}),
		ctrlCh:      make(chan struct{}),
		failPolicy:  FailStop,
		failBudget:  DefaultFailureBudget,
		failWindow:  DefaultFailureWindow,
		restartBase: defaultRestartBackoff,
		restartMax:  defaultRestartBackoffMax,
		watched:     make(map[*workerGroup]struct{}),
		shedSeen:    make(map[monitor.Key]uint64),
	}
	if os.Getenv("DOPE_DEBUG") == "1" {
		e.protocolCheck = true
	}
	for _, o := range opts {
		o(e)
	}
	// Always allocated (a few hundred bytes), even with no trace callback:
	// tests and tools may install e.trace after construction.
	e.tbuf = new(traceBuf)
	if e.contexts == nil {
		e.contexts = platform.NewContexts(DefaultContexts)
	}
	if e.features == nil {
		e.features = platform.NewFeatures()
	}
	if e.mon == nil {
		e.mon = monitor.NewRegistry(0.25)
	}
	if e.cfg.Load() == nil {
		e.cfg.Store(DefaultConfig(root))
	}
	cfg := e.cfg.Load().Clone()
	cfg.Normalize(root)
	e.cfg.Store(cfg)
	e.features.Register(platform.FeatureHardwareContexts,
		func() float64 { return float64(e.contexts.N()) })
	e.features.Register(platform.FeatureBusyContexts,
		func() float64 { return float64(e.contexts.Busy()) })
	if _, ok := e.clock.(platform.WallClock); ok {
		e.fastClock = true
		e.epochUnix = time.Now().UnixNano()
		e.epochMono = nanotime()
	} else {
		clk := e.clock
		e.slowClock = func() int64 { return clk.Now().UnixNano() }
	}
	return e, nil
}

// nowNanos is the Begin/End hot path's clock read; see the fastClock
// fields. The wall clock reads the runtime monotonic counter rebased onto
// the wall epoch; any other clock goes through its func.
func (e *Exec) nowNanos() int64 {
	if e.fastClock {
		return e.epochUnix + nanotime() - e.epochMono
	}
	return e.slowClock()
}

// Contexts returns the executive's hardware-context pool (the machine pool,
// or this tenant's quota-bounded view of it).
func (e *Exec) Contexts() platform.ContextPool { return e.contexts }

// Name returns the executive's tenant identity ("" for a single-tenant
// process).
func (e *Exec) Name() string { return e.name }

// Features returns the platform feature registry for mechanism-developer
// registrations (Figure 9).
func (e *Exec) Features() *platform.Features { return e.features }

// Clock returns the executive's clock.
func (e *Exec) Clock() platform.Clock { return e.clock }

// Uptime returns the time since Start.
func (e *Exec) Uptime() time.Duration {
	at := e.startAt.Load()
	if at == 0 {
		return 0
	}
	return e.clock.Since(time.Unix(0, at))
}

// Reconfigurations returns how many configuration changes have been applied.
func (e *Exec) Reconfigurations() uint64 { return e.reconfigs.Load() }

// Suspensions returns how many times a run was suspended: once per install
// that changed the root alternative, plus Stop.
func (e *Exec) Suspensions() uint64 { return e.suspends.Load() }

// Resizes returns how many in-place stage resizes have been applied (one
// per stage whose extent changed, so a single reconfiguration may count
// several). Extent-only mechanisms like WQ-Linear drive this counter up
// while Suspensions stays flat.
func (e *Exec) Resizes() uint64 { return e.resizes.Load() }

// CurrentConfig returns a copy of the active configuration.
func (e *Exec) CurrentConfig() *Config { return e.cfg.Load().Clone() }

// SetConfig installs cfg (normalized) as the active configuration.
// Extent-only changes resize the affected stages' worker groups in place;
// an alternative switch goes through the suspension protocol. Experiments
// use this to pin static configurations; mechanisms normally go through the
// control loop instead.
func (e *Exec) SetConfig(cfg *Config) {
	if cfg == nil {
		return
	}
	nc := cfg.Clone()
	nc.Normalize(e.root)
	e.install(nc, "")
}

// install makes nc the active configuration and applies the cheapest
// reconfiguration protocol that realizes it: nothing beyond the store for
// child-only changes, in-place worker-group resizes for root extent
// changes, and an alternative switch only when the root alternative
// changed: the current run is replaced by a fresh one for serve to
// instantiate, and suspended. nc must already be normalized and owned by
// the executive. Installs are serialized by installMu so two concurrent
// callers cannot both compare against the same stale configuration.
func (e *Exec) install(nc *Config, mechName string) {
	e.installMu.Lock()
	old := e.cfg.Load()
	if nc.Equal(old) {
		e.installMu.Unlock()
		return
	}
	e.cfg.Store(nc)
	e.reconfigs.Add(1)
	var ops []resizeOp
	var switched *run
	if r := e.curRun.Load(); r != nil {
		if rootAltDiffers(old, nc) {
			// The successor is current before its predecessor learns it is
			// suspended, so serve never finds a suspended run current unless
			// Stop put it there.
			e.curRun.Store(newRun(nc, true))
			switched = r
		} else {
			ops = r.resize(nc)
		}
	}
	// Emitted under the lock, so the trace lists reconfigurations in the
	// order they were installed even when installers race.
	e.emit(Event{Kind: EventReconfigure, Config: nc.Clone(), Mechanism: mechName})
	e.installMu.Unlock()
	for _, op := range ops {
		e.resizes.Add(1)
		e.emit(Event{
			Kind: EventResize, Stage: op.stage,
			FromExtent: op.from, ToExtent: op.to,
			Config: nc.Clone(), Mechanism: mechName,
		})
	}
	if switched != nil {
		e.suspend(switched)
	}
}

// Start launches the application under the executive. It returns an error
// if called twice.
func (e *Exec) Start() error {
	if !e.started.CompareAndSwap(false, true) {
		return errors.New("core: executive already started")
	}
	at := e.clock.Now().UnixNano()
	if at == 0 {
		at = 1 // virtual clocks may start at the epoch; 0 means "not started"
	}
	e.startAt.Store(at)
	// The first run is registered before the serve goroutine exists so a
	// reconfiguration issued immediately after Start still finds a run to
	// suspend; under the install lock so it is created for the
	// configuration that is current when it becomes visible.
	e.installMu.Lock()
	e.curRun.Store(newRun(e.cfg.Load(), false))
	e.installMu.Unlock()
	e.loopsWG.Add(2) // control and watchdog; serve joins them at shutdown
	go e.serve()
	go e.control()
	go e.watchdog()
	return nil
}

// Wait blocks until the application finishes naturally or Stop is called,
// and returns the first task error if any. This is DoPE::destroy's "wait
// for registered tasks to end".
func (e *Exec) Wait() error {
	<-e.doneCh
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.runErr
}

// Run is Start followed by Wait.
func (e *Exec) Run() error {
	if err := e.Start(); err != nil {
		return err
	}
	return e.Wait()
}

// Stop asks the executive to shut down: the current run is suspended and
// no successor is instantiated; a predecessor still draining behind it is
// suspended already. Stop does not wait; call Wait to join them.
func (e *Exec) Stop() {
	e.stop.Store(true)
	if r := e.curRun.Load(); r != nil {
		e.suspend(r)
	}
}

// Done returns a channel closed when the application has ended.
func (e *Exec) Done() <-chan struct{} { return e.doneCh }

// suspend requests r's suspension: its top-level workers observe Suspended
// at their next Begin/End (idle ones are woken by their Done channel,
// which cancelAll closes after the flag is raised), finish the items they
// already claimed and drain through their Fini cascade. Idempotent; only
// the first request counts as a suspension.
func (e *Exec) suspend(r *run) {
	if r.suspend.Swap(true) {
		return
	}
	at := e.clock.Now().UnixNano()
	if at == 0 {
		at = 1 // virtual clocks may sit at the epoch; 0 means "not suspending"
	}
	r.suspendAt.Store(at)
	e.suspends.Add(1)
	e.emit(Event{Kind: EventSuspend})
	r.cancelAll()
	close(r.suspendCh)
}

// serve is the root task loop. It instantiates the current run and waits
// for it to be suspended or to finish; on suspension it goes round again
// for the run the switching install left current — at the suspension
// request, not at the end of the drain. The predecessor's workers finish
// the items they already claimed and its Fini cascade runs behind the
// successor, on the same context pool (so Σ busy ≤ N holds throughout) and
// claiming input through the same queue or channel (so every item is served
// exactly once, whoever the claimant is).
//
// Overlap is the common case of one protocol, not a second one: where it
// would be unsound, the same loop waits for the predecessor first —
//
//  1. two instances of one alternative never coexist (A→B→A inside one
//     drain; this is what makes it safe for Make to reopen persistent
//     inter-stage queues),
//  2. alternatives sharing a stage name never coexist (monitor keys are
//     nest/stage; two groups would fold into one stage's statistics),
//  3. at most one run drains at a time (a second switch joins the older
//     predecessor before the next instance starts),
//  4. Stop and errors: every run is joined before EventFinish and doneCh.
//
// A run suspended before it was instantiated (several switches inside one
// drain) is skipped: serve always instantiates the latest.
func (e *Exec) serve() {
	defer func() {
		// ctrlCh is already closed (the defer below runs first), so both
		// tick loops are winding down; once they have exited no emitter
		// but a late user-goroutine install remains, and the final flush
		// delivers everything buffered before Wait can return.
		e.loopsWG.Wait()
		if e.hasTraceConsumer() {
			e.tbuf.flushFinal(e.deliver)
		}
		close(e.doneCh)
	}()
	defer close(e.ctrlCh)
	var prev *run // started, and suspended or finished; joined lazily
	failed := false
	join := func(r *run) {
		<-r.done
		if r.err != nil {
			// Only the latest instance can fail to instantiate, and whatever
			// drains behind it is suspended already: nothing to stop, and no
			// EventFinish follows.
			failed = true
			e.fail(r.err)
		}
	}
	for {
		next := e.curRun.Load()
		if prev != nil && (e.stop.Load() || next.suspending() || !e.root.mayOverlap(prev.cfg.Alt, next.cfg.Alt)) {
			join(prev)
			prev = nil
			continue
		}
		// Stop is checked after the load: a Stop that this read misses must
		// itself load the run this iteration starts (or a later one) and
		// suspend that, since the atomics are sequentially consistent.
		if e.stop.Load() {
			break
		}
		if next.suspending() {
			// Superseded before it was instantiated; install made its
			// successor current before suspending it, so the reload differs.
			continue
		}
		if next.switched {
			e.emit(Event{Kind: EventResume, Config: e.cfg.Load().Clone()})
			// Switch boundary: the suspend and the resume go out before the
			// successor's events.
			e.flushTrace()
		}
		go e.runTop(next)
		select {
		case <-next.suspendCh:
		case <-next.done:
		}
		if prev != nil {
			join(prev)
		}
		prev = next
		if prev.finished() {
			break
		}
	}
	if prev != nil {
		join(prev)
	}
	if !failed {
		e.emit(Event{Kind: EventFinish})
	}
}

// runTop runs r's instance of the root nest to its end on a goroutine of
// its own, so that serve stays free to start the successor.
func (e *Exec) runTop(r *run) {
	r.status, r.err = e.runNest(r, e.root, []string{e.root.Name}, nil, true)
	if r.err == nil && r.suspending() {
		<-r.suspendCh // EventDrained never precedes its EventSuspend
		e.emit(Event{
			Kind:  EventDrained,
			Nest:  e.root.Name + "/" + e.root.Alt(r.cfg.Alt).Name,
			Drain: r.drainAge(e.clock.Now()),
		})
		e.flushTrace()
	}
	close(r.done)
}

// Mechanism returns the currently installed mechanism (nil = static).
func (e *Exec) Mechanism() Mechanism {
	e.mechMu.RLock()
	defer e.mechMu.RUnlock()
	return e.mech
}

// SetMechanism swaps the adaptation mechanism at run time — the
// administrator changing the system's performance goal while it serves
// (§4). A nil mechanism freezes the current configuration. The new
// mechanism takes effect at the next control tick.
func (e *Exec) SetMechanism(m Mechanism) {
	e.mechMu.Lock()
	e.mech = m
	e.mechMu.Unlock()
}

// control periodically consults the mechanism and applies its decisions.
// The ticker comes from the executive's clock, so under a VirtualClock the
// control loop is driven deterministically by Advance/Set.
func (e *Exec) control() {
	defer e.loopsWG.Done()
	ticker := e.clock.NewTicker(e.interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.ctrlCh:
			return
		case <-ticker.C():
		}
		// Absorb the per-slot accumulators every tick so the EWMAs advance
		// even when no mechanism or query is folding them on demand, and
		// push out whatever the event buffer has batched since last tick.
		e.mon.FoldAll()
		e.flushTrace()
		mech := e.Mechanism()
		if mech == nil {
			continue
		}
		rep := e.Report()
		newCfg := mech.Reconfigure(rep)
		if newCfg == nil {
			continue
		}
		newCfg.Normalize(e.root)
		e.install(newCfg, mech.Name())
	}
}

// rootAltDiffers reports whether the top-level alternative changed, which
// swaps the stage set itself (fusion ↔ pipeline) and therefore requires the
// full suspension protocol. Extent-only differences do not qualify: they
// are absorbed by in-place worker-group resizes.
func rootAltDiffers(a, b *Config) bool {
	if a == nil || b == nil {
		return true
	}
	return a.Alt != b.Alt || len(a.Extents) != len(b.Extents)
}

// configAt resolves the configuration node for the nest at path (root name
// first), materializing defaults for unconfigured children. The returned
// node is treated as immutable.
func (e *Exec) configAt(path []string) (*NestSpec, *Config) {
	spec := e.root
	cfg := e.cfg.Load()
	for _, name := range path[1:] {
		child := findChildSpec(spec, name)
		if child == nil {
			// Undeclared nest: run it with defaults.
			return spec, DefaultConfig(spec)
		}
		var ccfg *Config
		if cfg != nil {
			ccfg = cfg.Child(name)
		}
		if ccfg == nil {
			ccfg = DefaultConfig(child)
		}
		spec, cfg = child, ccfg
	}
	return spec, cfg
}

// findChildSpec locates the nested nest with the given name under any
// alternative of spec.
func findChildSpec(spec *NestSpec, name string) *NestSpec {
	for _, alt := range spec.Alts {
		for i := range alt.Stages {
			if n := alt.Stages[i].Nest; n != nil && n.Name == name {
				return n
			}
		}
	}
	return nil
}

// runNest instantiates and executes one nest under the current
// configuration and blocks until every stage's worker group has drained.
// For the top-level nest the groups are registered with the run so that
// later extent-only reconfigurations can resize them in place; nested
// instances keep the paper's semantics of adapting at the next
// instantiation.
func (e *Exec) runNest(r *run, spec *NestSpec, path []string, item any, top bool) (Status, error) {
	resolved, cfg := e.configAt(path)
	if resolved != spec && resolved.Name != spec.Name {
		// Undeclared nest: fall back to its own defaults.
		cfg = DefaultConfig(spec)
	}
	if top {
		// The alternative is the one serve vetted against the predecessor,
		// not whatever a racing install has made current since; extents
		// installed in the meantime are adopted below.
		cfg = r.cfg
	}
	alt := spec.Alt(cfg.Alt)
	inst, err := alt.Make(item)
	if err != nil {
		return Finished, fmt.Errorf("core: instantiating %s/%s: %w",
			strings.Join(path, "/"), alt.Name, err)
	}
	if inst == nil || len(inst.Stages) != len(alt.Stages) {
		return Finished, fmt.Errorf("core: alternative %q of nest %q built %d stages, spec has %d",
			alt.Name, spec.Name, len(inst.Stages), len(alt.Stages))
	}
	nestName := strings.Join(path, "/")

	groups := make([]*workerGroup, 0, len(alt.Stages))
	releases := make([]func(), 0, len(alt.Stages))
	for i := range alt.Stages {
		st := &alt.Stages[i]
		fns := inst.Stages[i]
		if fns.Fn == nil {
			for _, rel := range releases {
				rel()
			}
			return Finished, fmt.Errorf("core: stage %q of nest %q has no functor", st.Name, spec.Name)
		}
		key := monitor.Key{Nest: nestName, Stage: st.Name}
		if fns.Init != nil {
			fns.Init()
		}
		policy := st.OnFailure
		if policy == FailDefault {
			policy = e.failPolicy
		}
		budget := st.FailureBudget
		if budget <= 0 {
			budget = e.failBudget
		}
		window := st.FailureWindow
		if window <= 0 {
			window = e.failWindow
		}
		deadline := st.Deadline
		if deadline <= 0 {
			deadline = e.deadline
		}
		groups = append(groups, &workerGroup{
			exec: e, r: r, key: key, stats: e.mon.Stage(key),
			st: st, fns: fns, path: path, top: top, item: item,
			altIdx: cfg.Alt, idx: i,
			policy: policy, budget: budget, window: window,
			deadline: deadline,
			windowed: deadline > 0 || e.drainTimeout > 0,
			target:   st.clampExtent(cfg.Extent(i)),
			done:     make(chan struct{}),
		})
		relLoad := e.mon.RegisterLoad(key, fns.Load)
		relShed := e.mon.RegisterShed(key, fns.Shed)
		relSoj := e.mon.RegisterSojourn(key, fns.Sojourn)
		releases = append(releases, func() { relLoad(); relShed(); relSoj() })
	}
	if top {
		// Register the groups and re-resolve the extents under the install
		// lock: a SetConfig between configAt above and this point found no
		// groups to resize, so its extents must be adopted here or the
		// change would be lost until the next reconfiguration.
		e.installMu.Lock()
		if cur := e.cfg.Load(); cur != nil && cur.Alt == cfg.Alt {
			for i, g := range groups {
				g.setTarget(g.st.clampExtent(cur.Extent(i)))
			}
		}
		r.setGroups(groups)
		e.installMu.Unlock()
	}
	for _, g := range groups {
		g.start()
	}

	var nestWG sync.WaitGroup
	for i, g := range groups {
		nestWG.Add(1)
		go func(g *workerGroup, fini, release func()) {
			defer nestWG.Done()
			g.wait()
			if fini != nil {
				fini()
			}
			release()
			g.stats.ObserveInstanceDone()
		}(g, inst.Stages[i].Fini, releases[i])
	}
	nestWG.Wait()
	for _, g := range groups {
		if g.suspended() {
			return Suspended, nil
		}
	}
	if top && r.suspending() {
		// All slots were abandoned by the drain watchdog rather than
		// exiting Suspended themselves; the run still drained for a
		// suspension, not to completion, so serve must go on with its
		// successor (or honor Stop), not report Finished.
		return Suspended, nil
	}
	return Finished, nil
}

func (e *Exec) emit(ev Event) {
	if e.trace == nil && !e.hasTap.Load() {
		return
	}
	ev.Time = e.Uptime()
	e.tbuf.enqueue(ev)
}

// traceTap is one TapTrace registration; the id makes release exact even
// when the same func value is tapped twice.
type traceTap struct {
	id uint64
	fn func(Event)
}

// TapTrace registers an additional trace consumer alongside any WithTrace
// callback: every buffered event is delivered to the callback and to every
// live tap, in the same emission order. Taps must be fast and must not call
// back into the Exec (the same contract as WithTrace). The returned release
// removes the tap; events flushed after release are no longer delivered to
// it. Safe to call on a running executive.
func (e *Exec) TapTrace(fn func(Event)) (release func()) {
	if fn == nil {
		return func() {}
	}
	e.tapMu.Lock()
	e.tapSeq++
	id := e.tapSeq
	var cur []traceTap
	if p := e.taps.Load(); p != nil {
		cur = *p
	}
	next := make([]traceTap, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = traceTap{id: id, fn: fn}
	e.taps.Store(&next)
	e.hasTap.Store(true)
	e.tapMu.Unlock()
	return func() {
		e.tapMu.Lock()
		defer e.tapMu.Unlock()
		p := e.taps.Load()
		if p == nil {
			return
		}
		next := make([]traceTap, 0, len(*p))
		for _, t := range *p {
			if t.id != id {
				next = append(next, t)
			}
		}
		e.taps.Store(&next)
		e.hasTap.Store(len(next) > 0)
	}
}

// deliver fans one flushed event out to the WithTrace callback and every
// live tap, preserving emission order for each consumer (the flusher calls
// deliver sequentially).
func (e *Exec) deliver(ev Event) {
	if e.trace != nil {
		e.trace(ev)
	}
	if p := e.taps.Load(); p != nil {
		for _, t := range *p {
			t.fn(ev)
		}
	}
}

// hasTraceConsumer reports whether anything would receive a flushed event.
func (e *Exec) hasTraceConsumer() bool {
	return e.trace != nil || e.hasTap.Load()
}

// flushTrace delivers buffered events to the trace callback and taps in
// emission order. Called from the control and watchdog ticks and at drain
// boundaries; a no-op when no consumer is installed.
func (e *Exec) flushTrace() {
	if e.hasTraceConsumer() {
		e.tbuf.flush(e.deliver)
	}
}
