// Package tenancy multiplexes many DoPE executives — tenants — onto one
// machine. Each tenant registers a nest with its own goal mechanism; the
// arbiter grants every tenant a quota-bounded view (platform.TenantPool) of
// the single shared hardware-context pool and re-divides the quota lattice
// each tick: weighted max-min fair share within strict priority tiers,
// work-conserving redistribution of idle quota, and per-tenant power
// sub-budgets split from a machine-wide watt budget.
//
// Robustness is the point of the layer. Failure, stall, and overload
// handling — the per-process machinery of internal/core — becomes per-tenant
// containment here:
//
//   - A fail-stop, watchdog fire, or panic storm in one tenant ends only
//     that tenant's run; its grant is reclaimed and redistributed, and
//     because every tenant admits acquires against its own quota word, the
//     failure never blocks another tenant's Begin fast path.
//   - Quota revocation reuses the drain protocol: lowering a quota stops
//     admitting immediately and lets the overage drain through Releases;
//     a tenant that stays over its grant past the grace period has its
//     configuration clamped in place, and past the eviction deadline it is
//     stopped outright — the drain bounded by WithDrainTimeout and the
//     stall watchdog, so a zombie tenant cannot hold the arbiter hostage.
//   - Admission control composes with queue shedding: registrations beyond
//     the machine's context floors are rejected, arrivals into a tenant
//     whose grant is gone or backlogged are refused by Admit, and both are
//     counted per tenant alongside the stages' Shed counters.
package tenancy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/core"
	"dope/internal/metrics"
	"dope/internal/platform"
)

// State is a tenant's lifecycle phase.
type State int32

const (
	// Running: registered, granted, executing.
	Running State = iota
	// Draining: an unregister or arbiter shutdown is draining the tenant.
	Draining
	// Stopped: unregistered cleanly.
	Stopped
	// Finished: the tenant's workload completed naturally.
	Finished
	// Failed: the tenant's run ended with an error (fail-stop escalation,
	// panic storm over budget).
	Failed
	// Evicted: the arbiter stopped the tenant for holding contexts past a
	// revocation deadline.
	Evicted
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	case Finished:
		return "finished"
	case Failed:
		return "failed"
	case Evicted:
		return "evicted"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Errors returned by Register and Unregister.
var (
	ErrSaturated     = errors.New("tenancy: machine saturated (context floors exhausted)")
	ErrDuplicate     = errors.New("tenancy: tenant name already registered")
	ErrUnknownTenant = errors.New("tenancy: no such tenant")
	ErrClosed        = errors.New("tenancy: arbiter closed")
)

// TenantSpec describes one nest to run under the arbiter.
type TenantSpec struct {
	// Name is the tenant's stable identity: admin detail rows, reports, and
	// re-registrations key on it, never on registration order.
	Name string
	// Root is the tenant's nest.
	Root *core.NestSpec
	// Weight is the tenant's share within its priority tier (default 1).
	Weight float64
	// Priority selects the strict tier: higher tiers' demands are satisfied
	// before lower tiers see any surplus. Floors (MinContexts) are honored
	// across all tiers.
	Priority int
	// MinContexts is the admission floor (default 1): registration fails
	// when the live tenants' floors plus this one exceed the machine.
	MinContexts int
	// MaxContexts caps the tenant's grant; 0 means the machine size.
	MaxContexts int
	// Mechanism is the tenant's adaptation mechanism (nil = static). It
	// sees Report.Contexts equal to the tenant's live quota, so budget-free
	// mechanisms follow grants automatically.
	Mechanism core.Mechanism
	// PowerMechanism, when set, rebuilds the tenant's mechanism whenever
	// its share of the machine watt budget changes (the per-tenant TPC
	// sub-budget hook). It replaces Mechanism on the first split.
	PowerMechanism func(watts float64) core.Mechanism
	// Options are appended to the executive's construction options, after
	// the arbiter's own (pool, name, drain timeout), so they may override
	// the drain timeout or add deadlines, failure policies, traces.
	Options []core.Option
}

// Tenant is one registered nest and its grant.
type Tenant struct {
	arb  *Arbiter
	spec TenantSpec
	pool *platform.TenantPool
	exec *core.Exec

	state    atomic.Int32
	rejected atomic.Uint64 // Admit refusals
	grants   atomic.Uint64 // arbiter quota raises applied to this tenant
	revokes  atomic.Uint64 // arbiter quota cuts (including eviction's cut to 0)

	mu        sync.Mutex
	quota     int
	watts     float64
	demand    float64   // decaying max of used+blocked, the fair-share signal
	overSince time.Time // since when the over-quota drain has made no progress
	lastOver  int       // over-quota debt at the previous enforcement pass
	err       error
}

// Name returns the tenant's stable registered name.
func (t *Tenant) Name() string { return t.spec.Name }

// Exec returns the tenant's executive.
func (t *Tenant) Exec() *core.Exec { return t.exec }

// Pool returns the tenant's quota-bounded context view.
func (t *Tenant) Pool() *platform.TenantPool { return t.pool }

// State returns the tenant's lifecycle phase.
func (t *Tenant) State() State { return State(t.state.Load()) }

// Err returns the tenant's run error, if its run has ended with one.
func (t *Tenant) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Quota returns the tenant's current grant.
func (t *Tenant) Quota() int { return t.pool.Quota() }

// Rejected returns how many arrivals Admit has refused.
func (t *Tenant) Rejected() uint64 { return t.rejected.Load() }

// Grants and Revokes count arbiter quota raises and cuts applied to this
// tenant — the churn signal behind the admin per-tenant arbitration rows.
func (t *Tenant) Grants() uint64  { return t.grants.Load() }
func (t *Tenant) Revokes() uint64 { return t.revokes.Load() }

// admitBacklogFactor bounds the arrival backlog Admit tolerates: once more
// than admitBacklogFactor×quota workers are parked on the tenant's quota,
// new arrivals are refused rather than queued behind a grant that cannot
// absorb them.
const admitBacklogFactor = 2

// Admit is the tenant-level admission check for one arrival. It refuses —
// and counts the refusal — when the tenant is no longer running, its grant
// is gone, or its quota backlog says the machine share cannot absorb more.
// Callers shed the arrival (or push back) instead of submitting it; the
// per-stage queue OverloadPolicy remains the second line of defense for
// work already admitted.
func (t *Tenant) Admit() bool {
	q := t.pool.Quota()
	if t.State() != Running || q == 0 || t.pool.Blocked() > admitBacklogFactor*q {
		t.rejected.Add(1)
		return false
	}
	return true
}

// TenantStatus is a point-in-time snapshot of one tenant for admin surfaces
// and the live-ops collector, keyed by the stable tenant name.
type TenantStatus = metrics.TenantSample

// Arbiter divides one shared context pool among registered tenants.
type Arbiter struct {
	pool         *platform.Contexts
	interval     time.Duration
	drainTimeout time.Duration
	revokeGrace  time.Duration
	evictAfter   time.Duration
	watts        float64
	manualTick   bool

	mu       sync.Mutex
	tenants  map[string]*Tenant
	closed   bool
	rejected atomic.Uint64 // registrations refused by admission control

	// start anchors the time axis the collector samples against;
	// collector, when attached, receives grant/revoke/evict decisions.
	start     time.Time
	collector atomic.Pointer[metrics.Collector]

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Option configures an Arbiter.
type Option func(*Arbiter)

// WithTickInterval sets how often the arbiter re-divides quotas.
func WithTickInterval(d time.Duration) Option {
	return func(a *Arbiter) {
		if d > 0 {
			a.interval = d
		}
	}
}

// WithDrainTimeout sets the drain bound installed on every tenant executive
// (overridable per tenant through TenantSpec.Options). It bounds both
// reconfiguration drains and the revocation Stop, so a zombie tenant cannot
// hold the arbiter hostage.
func WithDrainTimeout(d time.Duration) Option {
	return func(a *Arbiter) {
		if d > 0 {
			a.drainTimeout = d
		}
	}
}

// WithManualTick disables the background tick goroutine; tests drive the
// arbiter deterministically through Tick.
func WithManualTick() Option {
	return func(a *Arbiter) { a.manualTick = true }
}

// New builds an arbiter over the shared pool and starts its tick loop
// (unless WithManualTick).
func New(pool *platform.Contexts, opts ...Option) *Arbiter {
	a := &Arbiter{
		pool:         pool,
		interval:     10 * time.Millisecond,
		drainTimeout: 250 * time.Millisecond,
		revokeGrace:  50 * time.Millisecond,
		evictAfter:   500 * time.Millisecond,
		tenants:      make(map[string]*Tenant),
		stopCh:       make(chan struct{}),
		start:        time.Now(),
	}
	for _, o := range opts {
		o(a)
	}
	if !a.manualTick {
		a.wg.Add(1)
		go a.loop()
	}
	return a
}

// Pool returns the shared machine pool.
func (a *Arbiter) Pool() *platform.Contexts { return a.pool }

// PowerBudget returns the machine-wide watt budget (0 = none).
func (a *Arbiter) PowerBudget() float64 { return a.watts }

// RejectedTenants returns how many registrations admission control refused.
func (a *Arbiter) RejectedTenants() uint64 { return a.rejected.Load() }

// Register admits a tenant, builds its executive over a fresh quota view of
// the shared pool, grants it an initial quota, and starts it. Registration
// is refused — and counted — when the name is taken or when the live
// tenants' context floors plus the new one exceed the machine.
func (a *Arbiter) Register(spec TenantSpec) (*Tenant, error) {
	if spec.Name == "" {
		return nil, errors.New("tenancy: tenant needs a name")
	}
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	if spec.MinContexts < 1 {
		spec.MinContexts = 1
	}
	n := a.pool.N()
	if spec.MaxContexts <= 0 || spec.MaxContexts > n {
		spec.MaxContexts = n
	}
	if spec.MinContexts > spec.MaxContexts {
		spec.MinContexts = spec.MaxContexts
	}

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := a.tenants[spec.Name]; dup {
		a.mu.Unlock()
		return nil, ErrDuplicate
	}
	floors := spec.MinContexts
	for _, t := range a.tenants {
		if t.State() == Running || t.State() == Draining {
			floors += t.spec.MinContexts
		}
	}
	if floors > n {
		a.rejected.Add(1)
		a.mu.Unlock()
		return nil, ErrSaturated
	}
	tp := platform.NewTenantPool(a.pool, 0)
	t := &Tenant{arb: a, spec: spec, pool: tp}
	opts := []core.Option{
		core.WithContextPool(tp),
		core.WithName(spec.Name),
		core.WithDrainTimeout(a.drainTimeout),
		// The tenant's admission refusals surface in its own reports, so
		// recorded traces and the live-ops series carry the shed arrivals.
		core.WithRejectedGauge(t.rejected.Load),
	}
	if spec.Mechanism != nil {
		opts = append(opts, core.WithMechanism(spec.Mechanism))
	}
	opts = append(opts, spec.Options...)
	e, err := core.New(spec.Root, opts...)
	if err != nil {
		a.mu.Unlock()
		return nil, err
	}
	t.exec = e
	t.state.Store(int32(Running))
	a.tenants[spec.Name] = t
	a.rebalanceLocked()
	a.mu.Unlock()

	if err := e.Start(); err != nil {
		// Cannot happen for a fresh executive; contain anyway.
		a.mu.Lock()
		delete(a.tenants, spec.Name)
		tp.SetQuota(0)
		a.rebalanceLocked()
		a.mu.Unlock()
		return nil, err
	}
	a.wg.Add(1)
	go a.watch(t)
	return t, nil
}

// watch contains a tenant whose run ends on its own: a natural finish keeps
// the row (Finished), a run error marks it Failed; either way only this
// tenant's grant is reclaimed and the surplus is redistributed at once.
func (a *Arbiter) watch(t *Tenant) {
	defer a.wg.Done()
	err := t.exec.Wait()
	t.mu.Lock()
	t.err = err
	t.mu.Unlock()
	if err != nil {
		t.state.CompareAndSwap(int32(Running), int32(Failed))
	} else {
		t.state.CompareAndSwap(int32(Running), int32(Finished))
	}
	t.pool.SetQuota(0)
	a.mu.Lock()
	if !a.closed {
		a.rebalanceLocked()
	}
	a.mu.Unlock()
}

// Unregister stops a tenant (the drain bounded by its drain timeout and the
// stall watchdog), reclaims its grant, removes it, and redistributes.
func (a *Arbiter) Unregister(name string) error {
	a.mu.Lock()
	t, ok := a.tenants[name]
	if !ok {
		a.mu.Unlock()
		return ErrUnknownTenant
	}
	delete(a.tenants, name)
	a.mu.Unlock()

	if t.state.CompareAndSwap(int32(Running), int32(Draining)) {
		t.exec.Stop()
	}
	_ = t.exec.Wait()
	t.state.CompareAndSwap(int32(Draining), int32(Stopped))
	t.pool.SetQuota(0)

	a.mu.Lock()
	if !a.closed {
		a.rebalanceLocked()
	}
	a.mu.Unlock()
	return nil
}

// Tenant returns the registered tenant with the given name.
func (a *Arbiter) Tenant(name string) (*Tenant, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[name]
	return t, ok
}

// Tenants snapshots every registered tenant's status, sorted by name.
func (a *Arbiter) Tenants() []TenantStatus {
	a.mu.Lock()
	ts := make([]*Tenant, 0, len(a.tenants))
	for _, t := range a.tenants {
		ts = append(ts, t)
	}
	a.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].spec.Name < ts[j].spec.Name })
	out := make([]TenantStatus, len(ts))
	for i, t := range ts {
		out[i] = t.status()
	}
	return out
}

func (t *Tenant) status() TenantStatus {
	t.mu.Lock()
	watts := t.watts
	err := t.err
	t.mu.Unlock()
	st := TenantStatus{
		Name:      t.spec.Name,
		State:     t.State().String(),
		Priority:  t.spec.Priority,
		Weight:    t.spec.Weight,
		Quota:     t.pool.Quota(),
		Used:      t.pool.Busy(),
		OverQuota: t.pool.OverQuota(),
		Peak:      t.pool.Peak(),
		Blocked:   t.pool.Blocked(),
		Acquires:  t.pool.Acquires(),
		Watts:     watts,
		Shed:      sumShed(t.exec.Report().Root),
		Rejected:  t.rejected.Load(),
		Grants:    t.grants.Load(),
		Revokes:   t.revokes.Load(),
	}
	if err != nil {
		st.Err = err.Error()
	}
	return st
}

// sumShed totals the queue-shed counters across a nest tree: the per-tenant
// composition of the stage-level overload policies.
func sumShed(nr *core.NestReport) uint64 {
	if nr == nil {
		return 0
	}
	var s uint64
	for i := range nr.Stages {
		s += nr.Stages[i].Shed
	}
	for _, c := range nr.Children {
		s += sumShed(c)
	}
	return s
}

// Close stops the tick loop, drains and stops every tenant, and reclaims
// all grants. Registered tenants transition to Draining→Stopped unless
// their runs had already ended.
func (a *Arbiter) Close() {
	a.mu.Lock()
	a.closed = true
	ts := make([]*Tenant, 0, len(a.tenants))
	for _, t := range a.tenants {
		ts = append(ts, t)
	}
	a.mu.Unlock()
	a.stopOnce.Do(func() { close(a.stopCh) })
	for _, t := range ts {
		if t.state.CompareAndSwap(int32(Running), int32(Draining)) {
			t.exec.Stop()
		}
		_ = t.exec.Wait()
		t.state.CompareAndSwap(int32(Draining), int32(Stopped))
		t.pool.SetQuota(0)
	}
	a.wg.Wait()
}

func (a *Arbiter) loop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-ticker.C:
		}
		a.Tick()
	}
}

// Tick runs one arbitration round: refresh demand signals, escalate
// revocations, re-divide the quota lattice. Exported so tests (and the
// manual-tick mode) can drive arbitration deterministically.
func (a *Arbiter) Tick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.updateDemandLocked()
	a.enforceLocked(time.Now())
	a.rebalanceLocked()
}

// demandDecay is the per-tick decay of the demand signal: demand rises
// instantly to used+blocked and forgets an idle burst over a few ticks, so
// fair-share grants neither thrash on a single empty poll nor camp on a
// burst that ended.
const demandDecay = 0.8

func (a *Arbiter) updateDemandLocked() {
	for _, t := range a.tenants {
		if t.State() != Running {
			continue
		}
		inst := float64(t.pool.Busy() + t.pool.Blocked())
		t.mu.Lock()
		if d := t.demand * demandDecay; inst < d {
			inst = d
		}
		t.demand = inst
		t.mu.Unlock()
	}
}

// enforceLocked escalates revocation on tenants holding contexts beyond
// their grant. The escalation clock runs only while the drain makes no
// progress: an honest tenant's debt shrinks with every Release (admission
// above the lowered quota is already shut), so a shrinking debt resets the
// clock. A debt that sits flat past the grace period gets the tenant's
// configuration clamped in place to its quota (in-place resizes retire
// slots, whose Releases pay the debt); flat past the eviction deadline the
// tenant is stopped — its drain bounded by the drain timeout, with the
// stall watchdog reclaiming tokens from slots that never come back.
func (a *Arbiter) enforceLocked(now time.Time) {
	for _, t := range a.tenants {
		if t.State() != Running {
			continue
		}
		over := t.pool.OverQuota()
		t.mu.Lock()
		prev := t.lastOver
		t.lastOver = over
		switch {
		case over == 0:
			t.overSince = time.Time{}
			t.mu.Unlock()
		case t.overSince.IsZero() || over < prev:
			t.overSince = now
			t.mu.Unlock()
		case now.Sub(t.overSince) >= a.evictAfter:
			t.mu.Unlock()
			if t.state.CompareAndSwap(int32(Running), int32(Evicted)) {
				from := t.pool.Quota()
				t.pool.SetQuota(0)
				t.revokes.Add(1)
				a.recordDecision("evict", t.spec.Name, from, 0)
				t.exec.Stop()
			}
		case now.Sub(t.overSince) >= a.revokeGrace:
			quota := t.pool.Quota()
			t.mu.Unlock()
			clampConfig(t.exec, quota)
		default:
			t.mu.Unlock()
		}
	}
}

// clampConfig scales a tenant's root extents down so their sum fits the
// quota, triggering in-place worker-group shrinks; each retiring slot's
// Release pays down the over-quota debt.
func clampConfig(e *core.Exec, quota int) {
	if quota < 1 {
		return
	}
	cfg := e.CurrentConfig()
	total := 0
	for _, x := range cfg.Extents {
		total += x
	}
	if total <= quota {
		return
	}
	for i, x := range cfg.Extents {
		nx := x * quota / total
		if nx < 1 {
			nx = 1
		}
		cfg.Extents[i] = nx
	}
	e.SetConfig(cfg)
}

// Claim is one tenant's standing in a quota split.
type Claim struct {
	// Name breaks ties: between equal grant/weight ratios the lower name
	// takes the next context.
	Name string
	// Priority selects the strict tier; higher tiers fill first.
	Priority int
	// Weight is the claim's share within its tier; it must be positive.
	Weight float64
	// Min is the floor granted before any tier sees demand; Max caps the
	// grant (Min <= Max).
	Min, Max int
	// Demand is what the claim asks for now, clamped to [Min, Max].
	Demand int
}

// Allocate splits capacity contexts among claims and returns the grants,
// index-aligned with claims:
//
//  1. floors — every claim gets Min, in tier order, while capacity lasts;
//  2. demand phase — strict priority tiers, highest first: within a tier,
//     contexts go one at a time to the claim with the smallest grant/weight
//     ratio (weighted max-min water-filling) until every claim reaches its
//     demand;
//  3. surplus phase — leftover capacity is spread the same way up to Max,
//     so idle quota is work-conserving headroom rather than stranded.
func Allocate(claims []Claim, capacity int) []int {
	order := make([]int, len(claims))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := &claims[order[a]], &claims[order[b]]
		if ca.Priority != cb.Priority {
			return ca.Priority > cb.Priority
		}
		return ca.Name < cb.Name
	})
	capacity = max(capacity, 0)
	grant := make([]int, len(claims))
	demand := make([]int, len(claims))
	for _, i := range order {
		c := &claims[i]
		demand[i] = min(max(c.Demand, c.Min), c.Max)
		grant[i] = min(c.Min, capacity)
		capacity -= grant[i]
	}
	for phase := 0; phase < 2 && capacity > 0; phase++ {
		for lo := 0; lo < len(order) && capacity > 0; {
			hi := lo
			for hi < len(order) && claims[order[hi]].Priority == claims[order[lo]].Priority {
				hi++
			}
			tier := order[lo:hi]
			for capacity > 0 {
				pick := -1
				var pickRatio float64
				for _, i := range tier {
					ceil := demand[i]
					if phase == 1 {
						ceil = claims[i].Max
					}
					if grant[i] >= ceil {
						continue
					}
					ratio := float64(grant[i]) / claims[i].Weight
					if pick < 0 || ratio < pickRatio ||
						(ratio == pickRatio && claims[i].Name < claims[pick].Name) {
						pick, pickRatio = i, ratio
					}
				}
				if pick < 0 {
					break
				}
				grant[pick]++
				capacity--
			}
			lo = hi
		}
	}
	return grant
}

// rebalanceLocked re-divides the machine among running tenants with
// Allocate, over the capacity the drained tenants' still-held tokens (the
// lien) leave free, with each tenant's decaying demand as its claim.
//
// Applying the targets is asymmetric. A decrease lands immediately: the
// tenant stops admitting at once and whatever it holds beyond the new quota
// is over-quota debt that drains through its own Releases (enforceLocked
// escalates if it never does). A raise is capped by the machine's actual
// headroom — N minus every tenant's max(quota, used) and the tokens still
// held by drained tenants — so a grant is never backed by tokens another
// tenant still holds. That cap is the isolation invariant: while
// Σ max(quota_i, used_i) + lien <= N, an under-quota Acquire always finds a
// free shared token, so no tenant's Begin fast path can block on another
// tenant's debt. A raise deferred by missing headroom completes over the
// next ticks as the debtor's Releases drain.
func (a *Arbiter) rebalanceLocked() {
	n := a.pool.N()
	var running []*Tenant
	lien := 0
	for _, t := range a.tenants {
		if t.State() == Running {
			running = append(running, t)
		} else {
			lien += t.pool.Busy()
		}
	}
	sort.Slice(running, func(i, j int) bool {
		if running[i].spec.Priority != running[j].spec.Priority {
			return running[i].spec.Priority > running[j].spec.Priority
		}
		return running[i].spec.Name < running[j].spec.Name
	})
	claims := make([]Claim, len(running))
	for i, t := range running {
		t.mu.Lock()
		d := int(math.Ceil(t.demand))
		t.mu.Unlock()
		claims[i] = Claim{
			Name: t.spec.Name, Priority: t.spec.Priority, Weight: t.spec.Weight,
			Min: t.spec.MinContexts, Max: t.spec.MaxContexts, Demand: d,
		}
	}
	grant := Allocate(claims, n-lien)

	// Apply decreases first: admission stops now, the debt drains later.
	for i, t := range running {
		if grant[i] < t.pool.Quota() {
			a.applyGrant(t, grant[i])
		}
	}
	// Raises only into real headroom, priority order (running is sorted):
	// a raise deferred here completes on a later tick once debt drains.
	headroom := n - lien
	for _, t := range running {
		q, u := t.pool.Quota(), t.pool.Busy()
		if u > q {
			headroom -= u
		} else {
			headroom -= q
		}
	}
	for i, t := range running {
		if headroom <= 0 {
			break
		}
		q := t.pool.Quota()
		if grant[i] <= q {
			continue
		}
		raise := grant[i] - q
		if raise > headroom {
			raise = headroom
		}
		a.applyGrant(t, q+raise)
		headroom -= raise
	}

	// Power sub-budgets follow the grants.
	if a.watts > 0 {
		totalGrant := 0
		for _, g := range grant {
			totalGrant += g
		}
		for i, t := range running {
			var w float64
			if totalGrant > 0 {
				w = a.watts * float64(grant[i]) / float64(totalGrant)
			}
			t.mu.Lock()
			changed := math.Abs(w-t.watts) > 1e-9
			t.watts = w
			t.mu.Unlock()
			if changed && t.spec.PowerMechanism != nil {
				t.exec.SetMechanism(t.spec.PowerMechanism(w))
			}
		}
	}
}

func (a *Arbiter) applyGrant(t *Tenant, q int) {
	old := t.pool.Quota()
	t.pool.SetQuota(q)
	t.mu.Lock()
	t.quota = q
	t.mu.Unlock()
	switch {
	case q > old:
		t.grants.Add(1)
		a.recordDecision("grant", t.spec.Name, old, q)
	case q < old:
		t.revokes.Add(1)
		a.recordDecision("revoke", t.spec.Name, old, q)
	}
}

// recordDecision forwards one arbitration action to the attached collector's
// decision log; a no-op when no collector is attached.
func (a *Arbiter) recordDecision(kind, tenant string, from, to int) {
	if c := a.collector.Load(); c != nil {
		c.RecordDecision(metrics.DecisionEntry{
			T: time.Since(a.start).Seconds(), Kind: kind,
			Nest: tenant, From: from, To: to,
		})
	}
}

// AttachCollector streams the arbiter's state into a live-ops collector:
// every interval the per-tenant status sweep lands via ObserveTenants
// (quota/used/watts/shed/rejected series plus the latest arbitration table),
// and every grant, revocation, and eviction is appended to the collector's
// decision log as it happens. The returned release stops the sampling and
// detaches the decision feed; Close releases it implicitly.
func (a *Arbiter) AttachCollector(c *metrics.Collector, interval time.Duration) (release func()) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return func() {}
	}
	a.collector.Store(c)
	a.wg.Add(1)
	a.mu.Unlock()
	stop := make(chan struct{})
	var once sync.Once
	sample := func() { c.ObserveTenants(time.Since(a.start).Seconds(), a.Tenants()) }
	go func() {
		defer a.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-stop:
				return
			case <-a.stopCh:
				sample()
				return
			}
		}
	}()
	return func() {
		once.Do(func() {
			a.collector.Store(nil)
			close(stop)
		})
	}
}
