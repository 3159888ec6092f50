// Package dope is the public API of the Degree of Parallelism Executive, a
// runtime system that separates the concern of exposing parallelism from
// the concern of optimizing it (Raman, Kim, Oh, Lee, August: "Parallelism
// Orchestration using DoPE: the Degree of Parallelism Executive", PLDI
// 2011).
//
// # The three agents
//
// The application developer declares every parallelization of the program's
// loop nest once, as a tree of NestSpecs, deliberately not fixing any
// degree of parallelism (DoP):
//
//	inner := &dope.NestSpec{Name: "video", Alts: []*dope.AltSpec{
//	    {Name: "pipeline", Stages: ..., Make: ...}, // read|transform|write
//	    {Name: "fused",    Stages: ..., Make: ...}, // sequential transcode
//	}}
//	root := &dope.NestSpec{Name: "transcode", Alts: []*dope.AltSpec{{
//	    Name:   "outer",
//	    Stages: []dope.StageSpec{{Name: "serve", Type: dope.PAR, Nest: inner}},
//	    Make:   ...,
//	}}}
//
// The administrator states a performance goal:
//
//	d, err := dope.Create(root, dope.MinResponseTime(24))
//
// The mechanism developer implements Mechanisms (see internal/mechanism for
// the shipped catalog — the paper's six plus Proportional, LoadProportional, and EDP) that continuously recompute the parallelism
// configuration from monitored application features (per-task execution
// time and load) and platform features (hardware contexts, power).
//
// Functors bracket their CPU-intensive section with Worker.Begin/End, run
// nested loops with Worker.RunNest, and return Finished at the loop exit
// branch, Suspended when the executive requests reconfiguration, and
// Executing otherwise — the control-flow duplication of the paper's
// Figure 4.
package dope

import (
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dope/internal/admin"
	"dope/internal/core"
	"dope/internal/mechanism"
	"dope/internal/metrics"
	"dope/internal/monitor"
	"dope/internal/platform"
	"dope/internal/power"
)

// Re-exported model types; see package core for full documentation.
type (
	// Status is a task's per-iteration result (EXECUTING | SUSPENDED |
	// FINISHED).
	Status = core.Status
	// TaskType marks a stage SEQ or PAR.
	TaskType = core.TaskType
	// NestSpec describes one parallelized loop and its alternatives.
	NestSpec = core.NestSpec
	// AltSpec is one alternative parallelization (a ParDescriptor).
	AltSpec = core.AltSpec
	// StageSpec statically describes one task of an alternative.
	StageSpec = core.StageSpec
	// StageFns carries a stage instance's functor and callbacks.
	StageFns = core.StageFns
	// AltInstance is a fresh instantiation of an alternative.
	AltInstance = core.AltInstance
	// Worker is the per-goroutine task context (Begin/End/RunNest).
	Worker = core.Worker
	// Functor is one iteration of a task loop body.
	Functor = core.Functor
	// Config is a concrete parallelism configuration.
	Config = core.Config
	// Mechanism adapts configurations to meet a goal.
	Mechanism = core.Mechanism
	// Report is the monitoring snapshot given to mechanisms.
	Report = core.Report
	// NestReport and StageReport are Report components.
	NestReport = core.NestReport
	// StageReport is the monitored view of one stage.
	StageReport = core.StageReport
	// Event is an executive trace record.
	Event = core.Event
	// EventKind classifies trace records.
	EventKind = core.EventKind
	// FailurePolicy selects how the executive reacts to a panicking stage
	// functor (StageSpec.OnFailure, WithFailurePolicy).
	FailurePolicy = core.FailurePolicy
	// TaskContext is the cooperative cancellation handle of one invocation
	// (Worker.Context); its Done channel closes when the slot is abandoned.
	TaskContext = core.TaskContext
	// WhatIfReport is the causal what-if profile of one nest's stages:
	// virtual speedups predicting the throughput payoff of one more
	// context (or a faster stage), computed from live measurements by
	// Report.WhatIf / NestReport.WhatIf and served at GET /whatif.
	WhatIfReport = monitor.WhatIfReport
	// WhatIfStage is one stage's row in a WhatIfReport ranking.
	WhatIfStage = monitor.WhatIfStage
)

// Task status values.
const (
	Executing = core.Executing
	Suspended = core.Suspended
	Finished  = core.Finished
)

// Task types.
const (
	SEQ = core.SEQ
	PAR = core.PAR
)

// Event kinds.
const (
	EventReconfigure = core.EventReconfigure
	EventResize      = core.EventResize
	EventSuspend     = core.EventSuspend
	EventResume      = core.EventResume
	EventFinish      = core.EventFinish
	EventError       = core.EventError
	EventTaskFailure = core.EventTaskFailure
	EventTaskStall   = core.EventTaskStall
	EventShed        = core.EventShed
	EventDrained     = core.EventDrained
)

// Failure policies (see DESIGN.md "Failure semantics"): FailStop surfaces
// the first functor panic as the run error and shuts down (the default);
// FailRestart respawns the failed worker slot, with a per-stage failure
// budget and exponential backoff before escalating to FailStop; FailDegrade
// retires the failed slot and shrinks the stage's extent, leaving re-growth
// to the mechanism. FailDefault defers to the executive-wide policy.
const (
	FailDefault = core.FailDefault
	FailStop    = core.FailStop
	FailRestart = core.FailRestart
	FailDegrade = core.FailDegrade
)

// Option configures the executive; re-exported from core.
type Option = core.Option

// Re-exported executive options.
var (
	// WithContexts sets the number of hardware contexts.
	WithContexts = core.WithContexts
	// WithContextPool shares a caller-owned context pool.
	WithContextPool = core.WithContextPool
	// WithMechanism overrides the goal's mechanism.
	WithMechanism = core.WithMechanism
	// WithControlInterval sets the mechanism consultation period.
	WithControlInterval = core.WithControlInterval
	// WithMonitorAlpha sets monitor EWMA smoothing.
	WithMonitorAlpha = core.WithMonitorAlpha
	// WithClock substitutes the clock.
	WithClock = core.WithClock
	// WithTrace installs an event callback.
	WithTrace = core.WithTrace
	// WithInitialConfig sets the starting configuration.
	WithInitialConfig = core.WithInitialConfig
	// WithFeatures installs a caller-owned feature registry.
	WithFeatures = core.WithFeatures
	// WithProtocolCheck makes workers panic on Begin/End protocol misuse
	// (double Begin, End without Begin, RunNest while holding); the panic
	// surfaces as a run error. DOPE_DEBUG=1 enables it too. The static
	// counterpart is cmd/dope-vet.
	WithProtocolCheck = core.WithProtocolCheck
	// WithFailurePolicy sets the executive-wide default failure policy for
	// stages whose spec leaves OnFailure as FailDefault.
	WithFailurePolicy = core.WithFailurePolicy
	// WithFailureBudget bounds FailRestart: more than n failures within a
	// rolling window escalate the stage to FailStop.
	WithFailureBudget = core.WithFailureBudget
	// WithRestartBackoff sets the FailRestart backoff: base doubles per
	// failure in the window, capped at max.
	WithRestartBackoff = core.WithRestartBackoff
	// WithDeadline sets the executive-wide default invocation deadline for
	// stages whose spec leaves Deadline zero; the stall watchdog applies the
	// stage's failure policy to any Begin/End window that outlives it.
	WithDeadline = core.WithDeadline
	// WithDrainTimeout bounds every suspend drain (reconfiguration or Stop);
	// on expiry the straggling slots are escalated per their failure policy
	// instead of wedging Wait forever.
	WithDrainTimeout = core.WithDrainTimeout
	// WithStallCheckInterval overrides the watchdog polling period (default:
	// a quarter of the tightest deadline, clamped to [100µs, 25ms]).
	WithStallCheckInterval = core.WithStallCheckInterval
)

// DefaultConfig returns alternative 0 with extent 1 everywhere.
func DefaultConfig(spec *NestSpec) *Config { return core.DefaultConfig(spec) }

// Demand returns the peak hardware-context demand of a configuration.
func Demand(spec *NestSpec, cfg *Config) int { return core.Demand(spec, cfg) }

// DoPE is a running executive instance.
type DoPE struct {
	*core.Exec
	goalMu sync.Mutex
	goal   Goal
}

// Goal is the administrator's performance objective plus resource
// constraints (§4): a thread budget, an optional power budget, and the
// mechanism that pursues the objective.
type Goal struct {
	// Name describes the goal for traces.
	Name string
	// Threads is the hardware-thread budget N.
	Threads int
	// PowerBudget is the watt constraint (0 = unconstrained).
	PowerBudget float64
	// Mechanism pursues the objective; nil leaves the configuration static.
	Mechanism Mechanism
}

// MinResponseTime is the goal "minimize response time with N threads"
// (§7.1). The default mechanism is WQ-Linear, the paper's best performer;
// tune it with the Mmax/Qmax arguments of Mechanisms.WQLinear and override
// via WithMechanism if needed. mmax is the inner-loop extent at the
// parallel-efficiency knee; qmax the queue occupancy at which the inner
// loop degrades to sequential.
func MinResponseTime(threads, mmax int, qmax float64) Goal {
	return Goal{
		Name:    "min-response-time",
		Threads: threads,
		Mechanism: &mechanism.WQLinear{
			Threads: threads, Mmax: mmax, Mmin: 1, Qmax: qmax,
		},
	}
}

// MinResponseTimeWQTH is MinResponseTime with the two-state WQT-H
// mechanism; threshold is the work-queue occupancy T.
func MinResponseTimeWQTH(threads, mmax int, threshold float64) Goal {
	return Goal{
		Name:    "min-response-time",
		Threads: threads,
		Mechanism: &mechanism.WQTH{
			Threads: threads, Mmax: mmax, Threshold: threshold,
		},
	}
}

// MaxThroughput is the goal "maximize throughput with N threads" (§7.2);
// the default mechanism is TBF (throughput balance with task fusion).
func MaxThroughput(threads int) Goal {
	return Goal{
		Name:      "max-throughput",
		Threads:   threads,
		Mechanism: &mechanism.TBF{Threads: threads},
	}
}

// MaxThroughputUnderPower is the goal "maximize throughput with N threads,
// P watts" (§7.3), pursued by the TPC closed-loop controller over the
// SystemPower platform feature.
func MaxThroughputUnderPower(threads int, watts float64) Goal {
	return Goal{
		Name:        "max-throughput-under-power",
		Threads:     threads,
		PowerBudget: watts,
		Mechanism:   &mechanism.TPC{Threads: threads, Budget: watts},
	}
}

// MinEnergyDelay is the goal "minimize the energy-delay product", the
// administrator-invented goal the paper's §4 gives as an example of what
// the separation of concerns enables. It requires a SystemPower feature
// (see RegisterPowerModel); without one it degenerates to throughput
// maximization.
func MinEnergyDelay(threads int) Goal {
	return Goal{
		Name:      "min-energy-delay",
		Threads:   threads,
		Mechanism: &mechanism.EDP{Threads: threads},
	}
}

// StaticGoal pins the supplied configuration: no adaptation. This is the
// baseline mode of the paper's evaluation.
func StaticGoal(threads int) Goal {
	return Goal{Name: "static", Threads: threads}
}

// CustomGoal wires an arbitrary mechanism, for mechanism developers.
func CustomGoal(name string, threads int, m Mechanism) Goal {
	return Goal{Name: name, Threads: threads, Mechanism: m}
}

// Create validates the parallelism description, builds the executive for
// the given goal, and starts application execution (the paper's
// DoPE::create). Additional options may refine the platform.
func Create(root *NestSpec, goal Goal, opts ...Option) (*DoPE, error) {
	all := make([]Option, 0, len(opts)+2)
	if goal.Threads > 0 {
		all = append(all, WithContexts(goal.Threads))
	}
	if goal.Mechanism != nil {
		all = append(all, WithMechanism(goal.Mechanism))
	}
	all = append(all, opts...)
	exec, err := core.New(root, all...)
	if err != nil {
		return nil, err
	}
	d := &DoPE{Exec: exec, goal: goal}
	if err := exec.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// Goal returns the current performance goal.
func (d *DoPE) Goal() Goal {
	d.goalMu.Lock()
	defer d.goalMu.Unlock()
	return d.goal
}

// SetGoal installs a new performance goal on the running system — the
// paper's administrator changing what the same application optimizes for
// without touching its code (§4). The goal's mechanism takes over at the
// next control tick; a static goal freezes the current configuration.
func (d *DoPE) SetGoal(g Goal) {
	d.goalMu.Lock()
	d.goal = g
	d.goalMu.Unlock()
	d.SetMechanism(g.Mechanism)
}

// Destroy waits for registered tasks to end and finalizes the run-time
// system (the paper's DoPE::destroy). It returns the first task error.
func (d *DoPE) Destroy() error { return d.Wait() }

// StopOnInterrupt installs a SIGINT/SIGTERM handler that stops the nest:
// the current run is suspended through the normal drain protocol and not
// respawned, so a pending Destroy/Wait returns and deferred cleanup
// (recorder flushes, admin shutdown) runs. A second signal restores the
// default disposition, so a stuck drain can still be killed with another
// Ctrl-C. The returned release removes the handler; releasing after a
// signal fired is a no-op.
func (d *DoPE) StopOnInterrupt() (release func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	quit := make(chan struct{})
	var once sync.Once
	release = func() {
		once.Do(func() {
			signal.Stop(ch)
			close(quit)
		})
	}
	go func() {
		select {
		case <-quit:
			return
		case <-ch:
		}
		signal.Stop(ch) // second signal falls through to the default action
		d.Stop()
	}()
	return release
}

// AttachCollector starts a live-ops metrics collector on this executive:
// it taps the trace event stream for the decision log and samples Report
// into ring-buffered time series (window points each) every interval.
// Sampling runs off the hot path — Begin/End never blocks on it. The
// returned release detaches the tap, stops the sampler, and closes the
// collector; pass the collector to AdminHandlerWithCollector to serve it
// at GET /series for dope-top.
func (d *DoPE) AttachCollector(window int, interval time.Duration) (*metrics.Collector, func()) {
	col := metrics.NewCollector(window)
	detach := col.Attach(d.Exec, interval)
	return col, func() {
		detach()
		col.Close()
	}
}

// Mechanisms exposes the shipped mechanism constructors so applications and
// experiments can assemble goals beyond the defaults. Each field mirrors a
// mechanism of the paper's §7; see package internal/mechanism.
var Mechanisms = struct {
	Proportional func(threads int) Mechanism
	WQTH         func(threads, mmax int, threshold float64) Mechanism
	WQLinear     func(threads, mmax int, qmax float64) Mechanism
	TB           func(threads int) Mechanism
	TBF          func(threads int) Mechanism
	FDP          func(threads int) Mechanism
	SEDA         func(highWater, lowWater float64) Mechanism
	TPC          func(threads int, watts float64) Mechanism
	EDP          func(threads int) Mechanism
	LoadProp     func(threads int) Mechanism
	Gradient     func(threads int) Mechanism
}{
	Proportional: func(threads int) Mechanism { return &mechanism.Proportional{Threads: threads} },
	WQTH: func(threads, mmax int, threshold float64) Mechanism {
		return &mechanism.WQTH{Threads: threads, Mmax: mmax, Threshold: threshold}
	},
	WQLinear: func(threads, mmax int, qmax float64) Mechanism {
		return &mechanism.WQLinear{Threads: threads, Mmax: mmax, Mmin: 1, Qmax: qmax}
	},
	TB:  func(threads int) Mechanism { return &mechanism.TBF{Threads: threads, DisableFusion: true} },
	TBF: func(threads int) Mechanism { return &mechanism.TBF{Threads: threads} },
	FDP: func(threads int) Mechanism { return &mechanism.FDP{Threads: threads} },
	SEDA: func(highWater, lowWater float64) Mechanism {
		return &mechanism.SEDA{HighWater: highWater, LowWater: lowWater}
	},
	TPC: func(threads int, watts float64) Mechanism {
		return &mechanism.TPC{Threads: threads, Budget: watts}
	},
	EDP: func(threads int) Mechanism { return &mechanism.EDP{Threads: threads} },
	LoadProp: func(threads int) Mechanism {
		return &mechanism.LoadProportional{Threads: threads}
	},
	Gradient: func(threads int) Mechanism {
		return &mechanism.Gradient{Threads: threads}
	},
}

// MechanismCatalog returns a constructor for every shipped mechanism, keyed
// by the name PUT /mechanism and dope-replay accept. Each call of a
// constructor builds a fresh instance for the given thread budget; watts is
// TPC's power budget.
func MechanismCatalog(threads int, watts float64) map[string]func() Mechanism {
	return map[string]func() Mechanism{
		"proportional": func() Mechanism { return Mechanisms.Proportional(threads) },
		"wqth":         func() Mechanism { return Mechanisms.WQTH(threads, 8, 6) },
		"wqlinear":     func() Mechanism { return Mechanisms.WQLinear(threads, 8, 14) },
		"tb":           func() Mechanism { return Mechanisms.TB(threads) },
		"tbf":          func() Mechanism { return Mechanisms.TBF(threads) },
		"fdp":          func() Mechanism { return Mechanisms.FDP(threads) },
		"seda":         func() Mechanism { return Mechanisms.SEDA(8, 1) },
		"tpc":          func() Mechanism { return Mechanisms.TPC(threads, watts) },
		"edp":          func() Mechanism { return Mechanisms.EDP(threads) },
		"loadprop":     func() Mechanism { return Mechanisms.LoadProp(threads) },
		"gradient":     func() Mechanism { return Mechanisms.Gradient(threads) },
	}
}

// AdminHandlerWithCollector returns an HTTP handler exposing the
// administrator's console for this running system (§4): GET/PUT /config,
// GET/PUT /mechanism (by MechanismCatalog name, or "static"), GET /report,
// GET /stats, GET /whatif (the live causal what-if profile), GET /healthz,
// and GET /series backed by a collector from AttachCollector — the
// ring-buffered time-series feed dope-top polls. With a nil collector,
// /series answers 404. The catalog's thread and TPC power budgets are the
// goal's at the time of the call. Mount it behind a server with sane
// timeouts, e.g.:
//
//	go admin.NewServer("localhost:7117", d.AdminHandlerWithCollector(nil)).ListenAndServe()
func (d *DoPE) AdminHandlerWithCollector(col *metrics.Collector) http.Handler {
	g := d.Goal()
	threads := g.Threads
	if threads <= 0 {
		threads = d.Contexts().N()
	}
	return admin.HandlerWithCollector(d.Exec, MechanismCatalog(threads, g.PowerBudget), col)
}

// RegisterPowerModel wires the simulated power substrate into the
// executive: a linear CPU power model over busy contexts, observed through
// a PDU emulation with the given sampling period (the paper's PDU allows 13
// samples a minute, a period of time.Minute/13; 0 means unlimited). It
// returns the model so callers can translate budgets.
func (d *DoPE) RegisterPowerModel(samplePeriod time.Duration) *power.Model {
	model := power.NewDefaultModel(d.Contexts().N())
	pdu := power.NewPDU(func() float64 {
		return model.Watts(d.Contexts().Busy())
	}, samplePeriod, d.Clock())
	d.Features().Register(platform.FeatureSystemPower, pdu.FeatureCB())
	return model
}
