package core

import (
	"strings"
	"time"

	"dope/internal/monitor"
	"dope/internal/platform"
)

// StageReport is the monitored view of one stage, aggregated across all its
// instances (the paper's DoPE::getExecTime and DoPE::getLoad query results).
//
// StageReport, NestReport and Config are the observation schema: the JSON
// tags are the wire format of the JSONL log (package replay) and of the admin
// console's GET /report, and every consumer — mechanisms, the metrics
// collector, dope-top — reads these types directly. Adding a counter is one
// field here (plus its monitor.StageSnapshot source); reflection tests in this
// package and in replay fail if a hop drops it.
type StageReport struct {
	// Name, Type, MinDoP, MaxDoP echo the stage's spec.
	Name   string   `json:"name"`
	Type   TaskType `json:"par"`
	MinDoP int      `json:"minDoP,omitempty"`
	MaxDoP int      `json:"maxDoP,omitempty"`
	// HasNest reports whether the stage delegates to a nested loop.
	HasNest bool `json:"hasNest,omitempty"`
	// Extent is the configured DoP extent.
	Extent int `json:"extent"`
	// ExecTime is the smoothed per-iteration CPU time in seconds.
	ExecTime float64 `json:"execTime"`
	// MeanExecTime is the lifetime mean per-iteration CPU time in seconds.
	MeanExecTime float64 `json:"meanExecTime"`
	// Rate is the smoothed iteration completion rate (iterations/second,
	// summed over concurrent instances) — the throughput signal §7.2's
	// mechanisms balance.
	Rate float64 `json:"rate"`
	// Load is the summed value of the stage's live LoadCBs (typically
	// total in-queue occupancy) and LoadInstances how many instances
	// reported.
	Load          float64 `json:"load"`
	LoadInstances int     `json:"loadInstances"`
	// Iterations and Completed count loop-body executions and finished
	// instances.
	Iterations uint64 `json:"iterations"`
	Completed  uint64 `json:"completed"`
	// Workers is the live worker-slot gauge. During an in-place resize it
	// briefly diverges from Extent: retiring slots finish their current
	// iteration, fresh slots are still warming up. Mechanisms normalizing
	// Rate or Load per worker should divide by Workers, not Extent.
	Workers int `json:"workers,omitempty"`
	// QueueSojourn is the smoothed wait an item spends in the stage's
	// in-queue before this stage dequeues it, in seconds (mean over live
	// instances reporting a sojourn gauge; zero when none do). Shed items
	// are excluded — see queue.Queue.MeanSojourn.
	QueueSojourn float64 `json:"sojourn,omitempty"`
	// Observed reports that the stage has completed at least one iteration
	// since its stats were last reset, i.e. that ExecTime, MeanExecTime and
	// Rate reflect measurements rather than zero-valued defaults. The
	// what-if profiler refuses to extrapolate from unobserved stages.
	Observed bool `json:"observed,omitempty"`
	// Spawned and Retired count worker slots ever started and slots that
	// exited because a shrink retired them; Resizes counts in-place extent
	// changes the stage has absorbed without suspending the nest.
	Spawned uint64 `json:"spawned,omitempty"`
	Retired uint64 `json:"retired,omitempty"`
	Resizes uint64 `json:"resizes,omitempty"`
	// Failures counts functor panics absorbed by the stage under any
	// failure policy; ConsecutiveFailures is the failure streak since the
	// stage last completed an iteration — a persistently failing stage
	// shows it climbing, so mechanisms can steer work away before the
	// budget escalates it to FailStop.
	Failures            uint64 `json:"failures,omitempty"`
	ConsecutiveFailures int    `json:"consecFailures,omitempty"`
	// Stalls counts deadline overruns the watchdog detected for the stage;
	// StallsDuringDrain is the subset detected while the run was draining
	// for a reconfiguration or Stop. Zombies is the live gauge of abandoned
	// slots whose goroutines have not exited.
	Stalls            uint64 `json:"stalls,omitempty"`
	StallsDuringDrain uint64 `json:"stallsDuringDrain,omitempty"`
	Zombies           int    `json:"zombies,omitempty"`
	// Shed counts items the stage's in-queue dropped under its overload
	// policy (cumulative across instances; see queue.OverloadPolicy).
	Shed uint64 `json:"shed,omitempty"`
}

// newStageReport joins a stage's static description, its configured extent
// and the monitor's snapshot into the stage's observation row.
func newStageReport(st *StageSpec, extent int, snap monitor.StageSnapshot) StageReport {
	return StageReport{
		Name:                st.Name,
		Type:                st.Type,
		MinDoP:              st.MinDoP,
		MaxDoP:              st.MaxDoP,
		HasNest:             st.Nest != nil,
		Extent:              st.clampExtent(extent),
		ExecTime:            snap.ExecTime,
		MeanExecTime:        snap.MeanExecTime,
		Rate:                snap.Rate,
		Load:                snap.Load,
		LoadInstances:       snap.LoadInstances,
		Iterations:          snap.Iterations,
		Completed:           snap.Completed,
		Workers:             snap.Workers,
		QueueSojourn:        snap.QueueSojourn,
		Observed:            snap.Observed,
		Spawned:             snap.Spawned,
		Retired:             snap.Retired,
		Resizes:             snap.Resizes,
		Failures:            snap.Failures,
		ConsecutiveFailures: snap.ConsecutiveFailures,
		Stalls:              snap.Stalls,
		StallsDuringDrain:   snap.StallsDuringDrain,
		Zombies:             snap.Zombies,
		Shed:                snap.Shed,
	}
}

// NestReport is the monitored view of one nest under its current
// configuration.
type NestReport struct {
	// Name is the nest's own name; Path the slash-joined path from the root.
	Name string `json:"name"`
	Path string `json:"path"`
	// Spec is the nest's static description. It holds functors, so it is not
	// part of the wire format; package replay records its structure once per
	// entry and re-links a structural copy on decode.
	Spec *NestSpec `json:"-"`
	// AltIndex and AltName identify the configured alternative.
	AltIndex int    `json:"altIndex"`
	AltName  string `json:"altName"`
	// Stages reports the stages of the configured alternative, in order.
	Stages []StageReport `json:"stages"`
	// Children holds reports for nested loops declared under the
	// configured alternative, keyed by nest name.
	Children map[string]*NestReport `json:"children,omitempty"`
}

// Stage returns the report for the named stage, or nil.
func (n *NestReport) Stage(name string) *StageReport {
	for i := range n.Stages {
		if n.Stages[i].Name == name {
			return &n.Stages[i]
		}
	}
	return nil
}

// Report is the complete observation snapshot handed to a mechanism on each
// control tick.
type Report struct {
	// Tenant is the executive's identity when several share a machine
	// (WithName); "" for a single-tenant process.
	Tenant string
	// Time is the executive uptime at snapshot.
	Time time.Duration
	// Contexts is the hardware-context budget; BusyContexts the current
	// occupancy and BlockedAcquires how many workers are waiting for a
	// context (persistent blocking signals oversubscription).
	Contexts        int
	BusyContexts    int
	BlockedAcquires int
	// Features exposes registered platform features (power, etc.).
	Features *platform.Features
	// Rejected counts arrivals refused at admission before reaching any
	// stage queue — sampled from the gauge installed by WithRejectedGauge
	// (the tenancy layer's Admit refusals); zero when no gauge is set.
	Rejected uint64
	// Config is a mutable copy of the active configuration; mechanisms may
	// edit and return it from Reconfigure.
	Config *Config
	// Root is the observation tree.
	Root *NestReport
}

// Nest returns the report at the slash-joined path ("app/video"), or nil.
func (r *Report) Nest(path string) *NestReport {
	parts := strings.Split(path, "/")
	cur := r.Root
	if cur == nil || parts[0] != cur.Name {
		return nil
	}
	for _, p := range parts[1:] {
		cur = cur.Children[p]
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Mechanism is an optimization routine that inspects a Report and either
// returns a new configuration to install or nil to keep the current one
// (the paper's Mechanism::reconfigureParallelism).
type Mechanism interface {
	// Name identifies the mechanism in traces.
	Name() string
	// Reconfigure may mutate and return r.Config, or build a fresh Config,
	// or return nil for "no change". The executive normalizes the result.
	Reconfigure(r *Report) *Config
}

// Report builds an observation snapshot of the whole nest tree.
func (e *Exec) Report() *Report {
	cfg := e.cfg.Load()
	rep := &Report{
		Tenant:          e.name,
		Time:            e.Uptime(),
		Contexts:        e.contexts.N(),
		BusyContexts:    e.contexts.Busy(),
		BlockedAcquires: e.contexts.Blocked(),
		Features:        e.features,
		Config:          cfg.Clone(),
	}
	if e.rejectedFn != nil {
		rep.Rejected = e.rejectedFn()
	}
	rep.Root = e.nestReport(e.root, cfg, []string{e.root.Name})
	return rep
}

func (e *Exec) nestReport(spec *NestSpec, cfg *Config, path []string) *NestReport {
	if cfg == nil {
		cfg = DefaultConfig(spec)
	}
	alt := spec.Alt(cfg.Alt)
	nestName := strings.Join(path, "/")
	nr := &NestReport{
		Name:     spec.Name,
		Path:     nestName,
		Spec:     spec,
		AltIndex: cfg.Alt,
		AltName:  alt.Name,
	}
	for i := range alt.Stages {
		st := &alt.Stages[i]
		snap := e.mon.Snapshot(monitor.Key{Nest: nestName, Stage: st.Name})
		nr.Stages = append(nr.Stages, newStageReport(st, cfg.Extent(i), snap))
		if st.Nest != nil {
			if nr.Children == nil {
				nr.Children = make(map[string]*NestReport)
			}
			childPath := append(append([]string(nil), path...), st.Nest.Name)
			nr.Children[st.Nest.Name] = e.nestReport(st.Nest, cfg.Child(st.Nest.Name), childPath)
		}
	}
	return nr
}

// EventKind classifies executive trace events.
type EventKind int

const (
	// EventReconfigure: a new configuration was installed.
	EventReconfigure EventKind = iota
	// EventResize: one stage's worker group was resized in place (grown or
	// shrunk) without suspending the nest. A reconfiguration that changes
	// several stages' extents emits one EventResize per stage, after its
	// EventReconfigure.
	EventResize
	// EventSuspend: the executive requested top-level task suspension.
	EventSuspend
	// EventResume: a new instance of the root nest started under a new
	// configuration. After an alternative switch it follows the EventSuspend
	// at once — the predecessor drains behind it — so suspend → resume is
	// the time nobody was claiming input; it is only as long as a drain when
	// the two alternatives may not overlap (see Exec.serve).
	EventResume
	// EventFinish: the application completed.
	EventFinish
	// EventError: a task or instantiation failed; the run is over.
	EventError
	// EventTaskFailure: a stage functor panicked and the stage's failure
	// policy handled it. Nest/Stage carry the stage key, Policy the action
	// taken (after any escalation, which Escalated flags), Failures and
	// ConsecFailures the stage's failure counts, and Stack the goroutine
	// stack captured at the recovery site. Under FailStop an EventError
	// with the same error follows.
	EventTaskFailure
	// EventTaskStall: an invocation overran its deadline (or outlived the
	// drain timeout, which DuringDrain flags) and the watchdog abandoned
	// its slot under the stage's failure policy. Deadline and Stalled carry
	// the limit and the overrun age; under FailStop, Err and Stack carry
	// the stall error with a full goroutine dump.
	EventTaskStall
	// EventShed: a stage's in-queue dropped items under its overload
	// policy since the last watchdog patrol. ShedItems is the delta,
	// ShedTotal the stage's cumulative count.
	EventShed
	// EventDrained: a suspended instance of the root nest has drained — its
	// last worker group exited and its Fini cascade ran. Nest names the
	// instance as nest/alternative and Drain is the time since its
	// EventSuspend: the length of the overlap with its successor, or of the
	// pause when the switch was serialized.
	EventDrained
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventReconfigure:
		return "reconfigure"
	case EventResize:
		return "resize"
	case EventSuspend:
		return "suspend"
	case EventResume:
		return "resume"
	case EventFinish:
		return "finish"
	case EventError:
		return "error"
	case EventTaskFailure:
		return "task-failure"
	case EventTaskStall:
		return "task-stall"
	case EventShed:
		return "shed"
	case EventDrained:
		return "drained"
	default:
		return "unknown"
	}
}

// Event is one executive trace record.
type Event struct {
	// Time is executive uptime at emission.
	Time time.Duration
	// Kind classifies the event.
	Kind EventKind
	// Config is a copy of the configuration involved, when applicable.
	Config *Config
	// Mechanism names the deciding mechanism for reconfigurations driven
	// by the control loop.
	Mechanism string
	// Stage names the resized stage and FromExtent/ToExtent its extents
	// before and after, for EventResize. EventTaskFailure sets Stage too,
	// qualified by Nest.
	Stage      string
	FromExtent int
	ToExtent   int
	// Err carries the failure for EventError and EventTaskFailure.
	Err error
	// Nest is the failing stage's nest path for EventTaskFailure, and the
	// drained instance (nest/alternative) for EventDrained.
	Nest string
	// Policy is the failure policy applied (after escalation); Escalated
	// reports that budget or extent exhaustion forced FailStop.
	Policy    FailurePolicy
	Escalated bool
	// Failures is the stage's failure count within its rolling budget
	// window at emission (stalls share the window); ConsecFailures the
	// consecutive failures since the stage last completed an iteration.
	Failures       int
	ConsecFailures int
	// Stack is the goroutine stack captured where the panic was recovered
	// (EventTaskFailure) or a full goroutine dump taken by the watchdog
	// (EventTaskStall under FailStop).
	Stack string
	// DuringDrain marks an EventTaskStall raised by the drain watchdog;
	// Deadline is the stage's invocation deadline (zero for pure drain
	// timeouts) and Stalled how long the invocation had been running when
	// abandoned.
	DuringDrain bool
	Deadline    time.Duration
	Stalled     time.Duration
	// ShedItems and ShedTotal carry an EventShed's delta and cumulative
	// per-stage shed counts.
	ShedItems uint64
	ShedTotal uint64
	// Drain is an EventDrained's suspend → drained duration.
	Drain time.Duration
}
