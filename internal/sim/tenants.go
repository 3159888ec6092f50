package sim

import (
	"math"
	"math/rand"

	"dope/internal/stats"
	"dope/internal/tenancy"
	"dope/internal/workload"
)

// TenantClass describes one tenant of a multi-tenant sweep: its share of
// the machine and its (possibly misbehaving) workload.
type TenantClass struct {
	// Name identifies the tenant; Goal is a display label for the
	// tenant's objective ("latency", "batch", ...).
	Name string
	Goal string
	// Weight is the tenant's fair-share weight (default 1) and Min its
	// guaranteed context floor; Max caps its grant (0 = the whole pool).
	Weight int
	Min    int
	Max    int
	// Rate is the offered arrival rate in jobs/second. Callers size it
	// against Min/Exec so the same stream means the same pressure whether
	// the tenant runs solo or shares the machine.
	Rate float64
	// Exec is the sequential per-job service time in seconds (each job
	// occupies one context).
	Exec float64
	// PanicRate is the fraction of started jobs that abort mid-service
	// and retry (the injected misbehavior); the aborted attempt's context
	// time is wasted, the job keeps its arrival stamp.
	PanicRate float64
	// QueueCap bounds the tenant's arrival queue: arrivals beyond it are
	// shed (drop-newest). 0 = unbounded.
	QueueCap int
}

// TenantsConfig parameterizes one multi-tenant run.
type TenantsConfig struct {
	// Contexts is the shared pool size (default 24).
	Contexts int
	// Tasks is how many jobs arrive per tenant (default 500).
	Tasks int
	// Seed drives the Poisson arrival streams and panic coins.
	Seed int64
	// ControlEvery is the arbiter tick period in seconds (default 0.05).
	ControlEvery float64
	// Arbitrated selects quota arbitration (weighted fair share with
	// work-conserving redistribution, split by tenancy.Allocate). False
	// simulates a free-for-all: every tenant races for the shared pool
	// FIFO by arrival time, with no quotas.
	Arbitrated bool
	// Classes are the tenants.
	Classes []TenantClass
}

func (c *TenantsConfig) defaults() {
	if c.Contexts <= 0 {
		c.Contexts = 24
	}
	if c.Tasks <= 0 {
		c.Tasks = 500
	}
	if c.ControlEvery <= 0 {
		c.ControlEvery = 0.05
	}
}

// TenantResult is one tenant's outcome.
type TenantResult struct {
	Name      string
	Goal      string
	Completed int
	Shed      int
	Panics    int
	// MeanResp and P99 are response times (arrival to successful
	// completion, retries included) in seconds.
	MeanResp float64
	P99      float64
	// Throughput is completions/second over the tenant's busy period.
	Throughput float64
	// MeanQuota is the tenant's mean granted quota across arbiter ticks
	// (= Contexts when unarbitrated).
	MeanQuota float64
}

// simTenant is one tenant's live state.
type simTenant struct {
	class    TenantClass
	arrivals *workload.Arrivals
	coin     *rand.Rand
	queue    []float64 // arrival times of queued jobs
	retries  []float64 // arrival stamps of in-flight aborted attempts (FIFO: abort delay is constant per tenant)
	running  int
	quota    int
	arrived  int
	complete int
	shed     int
	panics   int
	respAll  []float64
	firstAt  float64
	lastAt   float64
	quotaSum float64
	quotaN   int
}

// demand mirrors the real arbiter's signal: work in flight plus backlog.
func (t *simTenant) demand() int { return t.running + len(t.queue) }

// tenantsSim is the multi-tenant DES.
type tenantsSim struct {
	cfg    TenantsConfig
	agenda *agenda
	now    float64
	tens   []*simTenant
	busy   int
}

// RunTenants simulates N tenants sharing one context pool and returns
// per-tenant outcomes in class order. With Arbitrated set it reproduces the
// tenancy arbiter's quota lattice (floors, weighted water-fill of demand,
// work-conserving surplus); without it the tenants race FIFO for the bare
// pool, which is the baseline the isolation figure is measured against.
func RunTenants(cfg TenantsConfig) []TenantResult {
	cfg.defaults()
	s := &tenantsSim{cfg: cfg, agenda: newAgenda()}
	for i, cl := range cfg.Classes {
		// Normalized as tenancy.Arbiter.Register normalizes a spec.
		if cl.Weight <= 0 {
			cl.Weight = 1
		}
		if cl.Max <= 0 {
			cl.Max = cfg.Contexts
		}
		t := &simTenant{
			class:    cl,
			arrivals: workload.NewArrivals(cl.Rate, cfg.Seed+int64(i)*101),
			coin:     rand.New(rand.NewSource(cfg.Seed + int64(i)*977 + 13)),
			quota:    cfg.Contexts,
		}
		s.tens = append(s.tens, t)
		s.agenda.schedule(t.arrivals.Next().Seconds(), evArrival, i, 0)
	}
	if cfg.Arbitrated {
		s.rebalance()
		s.agenda.schedule(cfg.ControlEvery, evControl, 0, 0)
	}
	s.loop()
	out := make([]TenantResult, len(s.tens))
	for i, t := range s.tens {
		r := TenantResult{
			Name: t.class.Name, Goal: t.class.Goal,
			Completed: t.complete, Shed: t.shed, Panics: t.panics,
			MeanQuota: float64(s.cfg.Contexts),
		}
		if n := len(t.respAll); n > 0 {
			sum := 0.0
			for _, v := range t.respAll {
				sum += v
			}
			r.MeanResp = sum / float64(n)
			if p99, err := stats.Percentile(t.respAll, 99); err == nil {
				r.P99 = p99
			}
			r.Throughput = float64(t.complete) / math.Max(t.lastAt-t.firstAt, 1e-9)
		}
		if t.quotaN > 0 {
			r.MeanQuota = t.quotaSum / float64(t.quotaN)
		}
		out[i] = r
	}
	return out
}

func (s *tenantsSim) loop() {
	for !s.agenda.empty() {
		ev := s.agenda.next()
		s.now = ev.at
		switch ev.kind {
		case evArrival:
			t := s.tens[ev.stage]
			t.arrived++
			if t.class.QueueCap > 0 && len(t.queue) >= t.class.QueueCap {
				t.shed++
			} else {
				if t.firstAt == 0 && t.complete == 0 {
					t.firstAt = s.now
				}
				t.queue = append(t.queue, s.now)
			}
			if t.arrived < s.cfg.Tasks {
				s.agenda.schedule(s.now+t.arrivals.Next().Seconds(), evArrival, ev.stage, 0)
			}
			s.tryStart()
		case evCompletion:
			t := s.tens[ev.stage]
			t.running--
			s.busy--
			if ev.item == 1 { // aborted attempt: retry with the original stamp
				t.panics++
				stamp := t.retries[0]
				t.retries = t.retries[1:]
				t.queue = append([]float64{stamp}, t.queue...)
			}
			s.tryStart()
		case evControl:
			s.rebalance()
			if !s.done() {
				s.agenda.schedule(s.now+s.cfg.ControlEvery, evControl, 0, 0)
			}
		}
	}
}

func (s *tenantsSim) done() bool {
	for _, t := range s.tens {
		if t.arrived < s.cfg.Tasks || t.complete+t.shed < t.arrived {
			return false
		}
	}
	return true
}

// mayStart applies the admission rule of the selected regime.
func (s *tenantsSim) mayStart(t *simTenant) bool {
	if len(t.queue) == 0 || s.busy >= s.cfg.Contexts {
		return false
	}
	if s.cfg.Arbitrated {
		return t.running < t.quota
	}
	return true
}

// tryStart drains every runnable queue. Under the free-for-all the next job
// is the globally oldest arrival (FIFO over the bare pool); under
// arbitration each tenant runs against its own quota, so the pick order
// does not matter.
func (s *tenantsSim) tryStart() {
	for {
		var pick *simTenant
		pickIdx := -1
		for i, t := range s.tens {
			if !s.mayStart(t) {
				continue
			}
			if pick == nil || t.queue[0] < pick.queue[0] {
				pick, pickIdx = t, i
			}
		}
		if pick == nil {
			return
		}
		arrival := pick.queue[0]
		pick.queue = pick.queue[1:]
		pick.running++
		s.busy++
		if pick.class.PanicRate > 0 && pick.coin.Float64() < pick.class.PanicRate {
			// The attempt panics halfway through: the context time is
			// burned, the item retries with its original arrival stamp.
			pick.retries = append(pick.retries, arrival)
			s.agenda.schedule(s.now+pick.class.Exec*0.5, evCompletion, pickIdx, 1)
			continue
		}
		resp := s.now + pick.class.Exec - arrival
		s.agenda.schedule(s.now+pick.class.Exec, evCompletion, pickIdx, 0)
		pick.respAll = append(pick.respAll, resp)
		pick.complete++
		pick.lastAt = s.now + pick.class.Exec
	}
}

// rebalance divides the pool with the arbiter's own split
// (tenancy.Allocate): guaranteed floors, then a weighted max-min water-fill
// of demand, then work-conserving redistribution of whatever is left to any
// tenant below its cap.
func (s *tenantsSim) rebalance() {
	claims := make([]tenancy.Claim, len(s.tens))
	for i, t := range s.tens {
		claims[i] = tenancy.Claim{
			Name: t.class.Name, Weight: float64(t.class.Weight),
			Min: t.class.Min, Max: t.class.Max, Demand: t.demand(),
		}
	}
	for i, g := range tenancy.Allocate(claims, s.cfg.Contexts) {
		t := s.tens[i]
		t.quota = g
		t.quotaSum += float64(g)
		t.quotaN++
	}
}
