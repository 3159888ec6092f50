// Package admin exposes a running executive over HTTP — the
// administrator's console (§4): inspect the monitoring snapshot, pin a
// static configuration, or switch the active mechanism, all against a live
// system without touching application code.
//
// Endpoints (JSON):
//
//	GET  /report     the current monitoring snapshot: a replay.Entry, i.e.
//	                 one line of the JSONL log (core's report types inside
//	                 the envelope)
//	GET  /config     the active parallelism configuration
//	PUT  /config     install a configuration (normalized; extent changes
//	                 resize stages in place, alternative switches suspend)
//	GET  /mechanism  {"name": "..."} of the active mechanism, or null
//	PUT  /mechanism  {"name": "tbf"} switch mechanisms by registered name;
//	                 {"name": "static"} freezes the current configuration
//	GET  /stats      executive counters (uptime, reconfigurations,
//	                 suspensions, in-place resizes, stalls, shed items, ...)
//	                 plus per-stage observation rows (queue sojourn, observed)
//	GET  /series     ring-buffered time series from an attached
//	                 metrics.Collector (per-stage rate/sojourn/extent,
//	                 robustness counters, power, decision log); ?since=<cursor>
//	                 fetches incrementally — pass the previous response's
//	                 "cursor" to get only newer points; 404 when no collector
//	                 is attached
//	GET  /whatif     the causal what-if profile per nest: stages ranked by
//	                 the predicted throughput payoff of one more context
//	                 (or a 10% service-time cut), from live measurements
//	GET  /healthz    liveness probe: 200 while healthy, 503 once a task has
//	                 failed or stalled under FailStop or abandoned (zombie)
//	                 slots linger, with per-stage detail
package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dope/internal/core"
	"dope/internal/metrics"
	"dope/internal/monitor"
	"dope/internal/replay"
)

// MechanismFactory constructs a fresh mechanism instance. Factories are
// used (rather than instances) because mechanisms carry per-run state.
type MechanismFactory = func() core.Mechanism

// Handler builds the administration http.Handler for a running executive.
// mechs maps names accepted by PUT /mechanism to factories; the name
// "static" is always available and installs no mechanism. GET /series
// answers 404 until a collector is attached via HandlerWithCollector.
func Handler(e *core.Exec, mechs map[string]MechanismFactory) http.Handler {
	return HandlerWithCollector(e, mechs, nil)
}

// HandlerWithCollector is Handler plus a live-ops collector backing the
// GET /series endpoint. The collector is typically attached to the same
// executive (metrics.Collector.Attach) but the handler serves whatever
// snapshot the collector holds.
func HandlerWithCollector(e *core.Exec, mechs map[string]MechanismFactory, col *metrics.Collector) http.Handler {
	mux := http.NewServeMux()
	h := &adminState{exec: e, mechs: mechs, col: col}
	mux.HandleFunc("/", h.index)
	mux.HandleFunc("/report", h.report)
	mux.HandleFunc("/config", h.config)
	mux.HandleFunc("/mechanism", h.mechanism)
	mux.HandleFunc("/stats", h.stats)
	mux.HandleFunc("/series", h.series)
	mux.HandleFunc("/whatif", h.whatif)
	mux.HandleFunc("/healthz", h.healthz)
	return mux
}

// serveSeries answers GET /series from a collector snapshot: the full held
// window by default, or everything after ?since=<cursor> for incremental
// consumers (dope-top's live mode polls this way).
func serveSeries(w http.ResponseWriter, r *http.Request, col *metrics.Collector) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if col == nil {
		http.Error(w, "no metrics collector attached", http.StatusNotFound)
		return
	}
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since cursor %q: %v", s, err), http.StatusBadRequest)
			return
		}
		since = v
	}
	writeJSON(w, http.StatusOK, col.Snapshot(since))
}

// NewServer wraps the admin handler in an http.Server with read/write
// timeouts, so a stuck or slow client cannot pin the admin port's
// goroutines the way a stalled task can no longer pin the executive.
func NewServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadTimeout:       5 * time.Second,
		ReadHeaderTimeout: 2 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

type adminState struct {
	exec  *core.Exec
	mechs map[string]MechanismFactory
	col   *metrics.Collector
}

func (h *adminState) series(w http.ResponseWriter, r *http.Request) {
	serveSeries(w, r, h.col)
}

func (h *adminState) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"endpoints": []string{
			"GET /report", "GET /config", "PUT /config",
			"GET /mechanism", "PUT /mechanism", "GET /stats",
			"GET /series", "GET /whatif", "GET /healthz",
		},
		"mechanisms": h.names(),
	})
}

// writeJSON is the one response writer: v indented, under the given status.
// The body is encoded before the status is committed, so a value that cannot
// be marshalled still answers 500 rather than a truncated success.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

func (h *adminState) report(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, replay.Encode(h.exec.Report()))
}

func (h *adminState) config(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, h.exec.CurrentConfig())
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := core.ParseConfig(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h.exec.SetConfig(cfg)
		writeJSON(w, http.StatusOK, h.exec.CurrentConfig())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// mechanismBody is the PUT /mechanism payload.
type mechanismBody struct {
	Name string `json:"name"`
}

func (h *adminState) mechanism(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		m := h.exec.Mechanism()
		if m == nil {
			writeJSON(w, http.StatusOK, map[string]any{"name": nil, "available": h.names()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"name": m.Name(), "available": h.names()})
	case http.MethodPut, http.MethodPost:
		var body mechanismBody
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if body.Name == "static" || body.Name == "" {
			h.exec.SetMechanism(nil)
			writeJSON(w, http.StatusOK, map[string]any{"name": nil})
			return
		}
		factory, ok := h.mechs[body.Name]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown mechanism %q (available: %v)",
				body.Name, h.names()), http.StatusBadRequest)
			return
		}
		m := factory()
		h.exec.SetMechanism(m)
		writeJSON(w, http.StatusOK, map[string]any{"name": m.Name()})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *adminState) names() []string {
	out := []string{"static"}
	for n := range h.mechs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (h *adminState) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rep := h.exec.Report()
	var stalls, shed uint64
	var zombies int
	stages := []stageStats{}
	walkStages(rep.Root, func(nest string, sr *core.StageReport) {
		stalls += sr.Stalls
		shed += sr.Shed
		zombies += sr.Zombies
		stages = append(stages, stageStats{
			Nest: nest, Stage: sr.Name,
			SojournSec: sr.QueueSojourn, Observed: sr.Observed,
			Rate: sr.Rate, Extent: sr.Extent, Workers: sr.Workers,
		})
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"uptimeSec":        h.exec.Uptime().Seconds(),
		"reconfigurations": h.exec.Reconfigurations(),
		"suspensions":      h.exec.Suspensions(),
		"resizes":          h.exec.Resizes(),
		"taskFailures":     h.exec.TaskFailures(),
		"taskStalls":       h.exec.TaskStalls(),
		"stageStalls":      stalls,
		"shedItems":        shed,
		"zombieSlots":      zombies,
		"rejectedArrivals": rep.Rejected,
		"contexts":         h.exec.Contexts().N(),
		"busyContexts":     h.exec.Contexts().Busy(),
		"peakContexts":     h.exec.Contexts().Peak(),
		"stages":           stages,
	})
}

// stageStats is one per-stage observation row in GET /stats: the sojourn
// gauge and observation flag (added with the sojourn-aware mechanisms) that
// the roll-up counters above cannot carry.
type stageStats struct {
	Nest       string  `json:"nest"`
	Stage      string  `json:"stage"`
	SojournSec float64 `json:"sojournSec"`
	Observed   bool    `json:"observed"`
	Rate       float64 `json:"rate"`
	Extent     int     `json:"extent"`
	Workers    int     `json:"workers"`
}

// whatif serves the live causal what-if profile: one WhatIfReport per nest
// in the tree, keyed by path, each ranking that nest's stages by the
// predicted throughput payoff of one more hardware context. A nest whose
// stages have not all completed an iteration yet reports Valid=false with
// the reason, never a fabricated estimate; non-finite payoffs are scrubbed
// before marshalling.
func (h *adminState) whatif(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rep := h.exec.Report()
	nests := map[string]monitor.WhatIfReport{}
	var walk func(n *core.NestReport)
	walk = func(n *core.NestReport) {
		if n == nil {
			return
		}
		nests[n.Path] = n.WhatIf()
		for _, child := range n.Children {
			walk(child)
		}
	}
	walk(rep.Root)
	root := ""
	if rep.Root != nil {
		root = rep.Root.Path
	}
	writeJSON(w, http.StatusOK, map[string]any{"root": root, "nests": nests})
}

// walkStages visits every stage report in the nest tree.
func walkStages(n *core.NestReport, visit func(nestPath string, sr *core.StageReport)) {
	if n == nil {
		return
	}
	for i := range n.Stages {
		visit(n.Path, &n.Stages[i])
	}
	for _, child := range n.Children {
		walkStages(child, visit)
	}
}

// stageHealth is one unhealthy stage's detail in the /healthz body.
type stageHealth struct {
	Nest              string `json:"nest"`
	Stage             string `json:"stage"`
	Stalls            uint64 `json:"stalls"`
	StallsDuringDrain uint64 `json:"stallsDuringDrain"`
	Zombies           int    `json:"zombies"`
	Shed              uint64 `json:"shed"`
	Workers           int    `json:"workers"`
}

// healthz is the load-balancer probe. 200 while the executive is healthy;
// 503 once a task failure or stall escalated to FailStop (the run error is
// set — the executive is terminating) or while abandoned (zombie) slots
// linger. Stages that have ever stalled or shed stay listed in the detail
// body either way, so a probe flapping back to 200 still shows history.
func (h *adminState) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	detail := []stageHealth{}
	zombies := 0
	walkStages(h.exec.Report().Root, func(nest string, sr *core.StageReport) {
		zombies += sr.Zombies
		if sr.Stalls > 0 || sr.Zombies > 0 || sr.Shed > 0 {
			detail = append(detail, stageHealth{
				Nest: nest, Stage: sr.Name,
				Stalls: sr.Stalls, StallsDuringDrain: sr.StallsDuringDrain,
				Zombies: sr.Zombies, Shed: sr.Shed, Workers: sr.Workers,
			})
		}
	})
	status, code := "ok", http.StatusOK
	var failure any
	if zombies > 0 {
		status, code = "stalled", http.StatusServiceUnavailable
	}
	if err := h.exec.Err(); err != nil {
		status, code = "failed", http.StatusServiceUnavailable
		// The run error may carry a multi-page goroutine dump; the probe
		// body keeps the headline and leaves the dump to GET /report logs.
		failure, _, _ = strings.Cut(err.Error(), "\n")
	}
	writeJSON(w, code, map[string]any{
		"status":     status,
		"error":      failure,
		"taskStalls": h.exec.TaskStalls(),
		"zombies":    zombies,
		"stages":     detail,
	})
}
