package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dope/benchmark/loadgen"
)

// Scenario declares one workload as data: which program to build, on how
// many contexts, under which mechanism or goal schedule, with which load,
// faults, tenants and ops surface, and for how long. The runner has one
// code path; everything that differs between workloads is in these files.
type Scenario struct {
	Name string `json:"name"`
	// Why records, in one sentence, why the workload exists.
	Why string `json:"why"`
	// Kind selects the program: "pipeline" (a benchmark-owned root
	// pipeline), "server" (one of internal/apps behind its request queue) or
	// "tenants" (several benchmark-owned nests under a tenancy arbiter).
	Kind string `json:"kind"`
	// Loop is "closed" (a producer blocked on a bounded queue) or "open"
	// (a seeded schedule played on the wall clock).
	Loop string `json:"loop"`
	// Work is "native" (apps.Burn spins the CPU) or "virtual" (apps.Work
	// sleeps while holding a context).
	Work string `json:"work"`
	// WarmupS is how long load is offered before the measured window;
	// WindowS is the default length of the window (the -seconds flag
	// overrides it).
	WarmupS float64 `json:"warmup_s"`
	WindowS float64 `json:"window_s"`
	// Contexts is the size of the hardware-context pool; 0 means one per
	// host CPU.
	Contexts int `json:"contexts"`
	// ControlIntervalMs is the executive's control-loop period.
	ControlIntervalMs int `json:"control_interval_ms,omitempty"`

	Pipeline  *PipelineSpec    `json:"pipeline,omitempty"`
	App       *AppSpec         `json:"app,omitempty"`
	Mechanism *MechSpec        `json:"mechanism,omitempty"`
	Goals     *GoalSpec        `json:"goals,omitempty"`
	Load      []loadgen.Source `json:"load,omitempty"`
	Tenants   []TenantSpec     `json:"tenants,omitempty"`
	Ops       *OpsSpec         `json:"ops,omitempty"`
}

// PipelineSpec describes the benchmark-owned SEQ → PAR → SEQ root pipeline.
type PipelineSpec struct {
	// BurnUnits is the apps.Burn size of every stage's CPU section.
	BurnUnits int `json:"burn_units"`
	// QueueCap bounds the head queue and both inter-stage queues.
	QueueCap int `json:"queue_cap"`
	// ParExtent is the middle stage's extent; 0 means one per host CPU.
	ParExtent int `json:"par_extent"`
}

// AppSpec selects and sizes one of the internal/apps applications.
type AppSpec struct {
	Name string `json:"name"` // "transcode" or "ferret"
	// Transcode.
	Frames        int `json:"frames,omitempty"`
	UnitsPerFrame int `json:"units_per_frame,omitempty"`
	// Ferret.
	UnitsBase      int   `json:"units_base,omitempty"`
	InitialExtents []int `json:"initial_extents,omitempty"`
}

// MechSpec names a mechanism and its parameters.
type MechSpec struct {
	Name    string  `json:"name"` // "wq-linear", "load-proportional", "tbf" or "tpc"
	Threads int     `json:"threads,omitempty"`
	Mmax    int     `json:"mmax,omitempty"`
	Mmin    int     `json:"mmin,omitempty"`
	Qmax    float64 `json:"qmax,omitempty"`
	// FusionThreshold is TBF's: the stage-capacity imbalance beyond which
	// it switches the nest to its fused alternative (0 = its default).
	FusionThreshold float64 `json:"fusion_threshold,omitempty"`
}

// GoalSpec is a schedule of goal switches made through the admin surface:
// the measured window is divided evenly into len(Schedule)×Rounds phases
// and each phase starts with a PUT /mechanism of the next phase's goal.
type GoalSpec struct {
	Schedule []GoalPhase `json:"schedule"`
	Rounds   int         `json:"rounds"`
	// PowerBudgetShare is the TPC watt budget as a share of peak power;
	// PDUPeriodMs how often the modelled power meter refreshes.
	PowerBudgetShare float64 `json:"power_budget_share"`
	PDUPeriodMs      int     `json:"pdu_period_ms"`
}

// GoalPhase is one goal of the schedule. Config, when set, is installed
// with PUT /config right after the mechanism is switched: the
// administrator putting the nest back into a known shape for the new goal.
type GoalPhase struct {
	Mechanism MechSpec        `json:"mechanism"`
	Config    json.RawMessage `json:"config,omitempty"`
}

// TenantSpec is one benchmark-owned single-stage PAR nest registered with
// the arbiter, and the client that drives it.
type TenantSpec struct {
	Name string `json:"name"`
	// Victim marks the well-behaved tenant whose response times the
	// workload reports.
	Victim      bool           `json:"victim,omitempty"`
	Load        loadgen.Source `json:"load"`
	TaskUnits   int            `json:"task_units"`
	Extent      int            `json:"extent"`
	Weight      float64        `json:"weight"`
	MinContexts int            `json:"min_contexts"`
	MaxContexts int            `json:"max_contexts"`
	// QueueCap > 0 bounds the tenant's request queue with the shed-oldest
	// policy; Admit puts Tenant.Admit in front of it.
	QueueCap int  `json:"queue_cap,omitempty"`
	Admit    bool `json:"admit,omitempty"`
	// PanicRate and StallRate inject faults through internal/faults; with
	// either set the stage runs under FailRestart with the given deadline.
	PanicRate  float64 `json:"panic_rate,omitempty"`
	StallRate  float64 `json:"stall_rate,omitempty"`
	DeadlineMs int     `json:"deadline_ms,omitempty"`
}

// OpsSpec switches on the live ops surface and the benchmark's clients of
// it.
type OpsSpec struct {
	// TickMs is the period of the benchmark's own Arbiter.Tick calls.
	TickMs int `json:"tick_ms"`
	// CollectorIntervalMs is the sampling period of the metrics.Collector
	// attached to every executive and to the arbiter; CollectorWindow its
	// ring size.
	CollectorIntervalMs int `json:"collector_interval_ms"`
	CollectorWindow     int `json:"collector_window"`
	// ScrapeHz is how often one client connection fetches /series?since=,
	// /stats and /healthz; RecordHz how often a replay.Recorder records
	// every executive's report.
	ScrapeHz int `json:"scrape_hz"`
	RecordHz int `json:"record_hz"`
}

//go:embed scenarios/*.json
var scenarioFS embed.FS

// loadScenario decodes scenarios/<name>.json, rejecting unknown fields.
func loadScenario(name string) (*Scenario, error) {
	raw, err := scenarioFS.ReadFile("scenarios/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(scenarioNames(), ", "))
	}
	return decodeScenario(raw)
}

func decodeScenario(raw []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("decoding scenario: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return &sc, nil
}

func (sc *Scenario) validate() error {
	if sc.Name == "" || sc.Why == "" || len(sc.Why) > 200 || strings.Contains(sc.Why, "\n") {
		return fmt.Errorf("needs a name and a one-line why of at most 200 characters")
	}
	if sc.Work != "native" && sc.Work != "virtual" {
		return fmt.Errorf("work must be native or virtual, not %q", sc.Work)
	}
	if sc.WarmupS <= 0 || sc.WindowS <= 0 {
		return fmt.Errorf("needs positive warmup_s and window_s")
	}
	switch sc.Kind {
	case "pipeline":
		if sc.Pipeline == nil || sc.Pipeline.BurnUnits <= 0 || sc.Pipeline.QueueCap <= 0 {
			return fmt.Errorf("kind pipeline needs pipeline.burn_units and pipeline.queue_cap")
		}
		if sc.Loop != "closed" {
			return fmt.Errorf("kind pipeline is a closed loop")
		}
	case "server":
		if sc.App == nil || len(sc.Load) == 0 || sc.Loop != "open" {
			return fmt.Errorf("kind server needs an app and an open-loop load")
		}
		if sc.App.Name != "transcode" && sc.App.Name != "ferret" {
			return fmt.Errorf("unknown app %q", sc.App.Name)
		}
		if sc.Goals != nil && (len(sc.Goals.Schedule) == 0 || sc.Goals.Rounds <= 0) {
			return fmt.Errorf("goals need a schedule and rounds")
		}
	case "tenants":
		if len(sc.Tenants) == 0 || sc.Ops == nil || sc.Loop != "open" {
			return fmt.Errorf("kind tenants needs tenants, ops and an open-loop load")
		}
		victims := 0
		for _, t := range sc.Tenants {
			if t.Victim {
				victims++
			}
			if t.Name == "" || t.TaskUnits <= 0 || t.Extent <= 0 || t.Load.Rate <= 0 {
				return fmt.Errorf("tenant %q needs a name, task_units, extent and load", t.Name)
			}
		}
		if victims != 1 {
			return fmt.Errorf("exactly one tenant must be the victim, have %d", victims)
		}
		if sc.Ops.TickMs <= 0 || sc.Ops.ScrapeHz <= 0 || sc.Ops.RecordHz <= 0 {
			return fmt.Errorf("ops needs tick_ms, scrape_hz and record_hz")
		}
	default:
		return fmt.Errorf("unknown kind %q", sc.Kind)
	}
	return nil
}

// scenarioNames lists the declared workloads in a fixed order.
func scenarioNames() []string {
	entries, err := scenarioFS.ReadDir("scenarios")
	if err != nil {
		panic(err) // the directory is embedded at build time
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}
