package main

import (
	"encoding/json"
)

// metricDef describes one reported metric. Bound is the share of the
// parent commit's median by which an end-to-end metric may get worse before
// a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the runtime sees. Every workload
// reports every one of them, with tracing off. The bounds are as wide as
// they may be because the reference box resolves no less: each metric has
// a workload on which ten same-code runs spread by a tenth of the median
// (see README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_item", "us", "lower", 0.25},
	{"resp_p50_ms", "ms", "lower", 0.25},
	{"resp_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, named <layer>.<metric> after
// this repository's packages, reported by the traced run. A metric that
// does not apply to a workload (tenancy.* on spin-pipe) reads 0 there.
var perLayer = []metricDef{
	{"core.begin_ns_p50", "ns", "lower", 0},
	{"core.begin_ns_p99", "ns", "lower", 0},
	{"core.end_ns_p50", "ns", "lower", 0},
	{"core.end_ns_p99", "ns", "lower", 0},
	{"core.nest_self_us_p50", "us", "lower", 0},
	{"core.report_us_p50", "us", "lower", 0},
	{"core.reconfigs", "count", "lower", 0},
	{"core.resizes", "count", "lower", 0},
	{"core.suspensions", "count", "lower", 0},
	{"core.alt_switch_pause_ms_p50", "ms", "lower", 0},
	{"core.drain_ms", "ms", "lower", 0},
	{"core.task_failures", "count", "lower", 0},
	{"core.task_stalls", "count", "lower", 0},
	{"core.managed_ratio", "ratio", "higher", 0},
	{"core.accounted_share", "ratio", "higher", 0},
	{"queue.enqueue_ns_p50", "ns", "lower", 0},
	{"queue.enqueue_ns_p99", "ns", "lower", 0},
	{"queue.dequeue_ns_p50", "ns", "lower", 0},
	{"queue.dequeue_ns_p99", "ns", "lower", 0},
	{"queue.sojourn_ms_mean", "ms", "lower", 0},
	{"queue.peak_len", "count", "lower", 0},
	{"queue.shed", "count", "lower", 0},
	{"platform.acquires_per_item", "count", "lower", 0},
	{"platform.mean_occupancy", "count", "higher", 0},
	{"platform.peak_busy", "count", "higher", 0},
	{"platform.blocked_share", "ratio", "lower", 0},
	{"monitor.exec_time_rel_err", "ratio", "lower", 0},
	{"monitor.rate_rel_err", "ratio", "lower", 0},
	{"mechanism.reconfigure_us_p50", "us", "lower", 0},
	{"mechanism.reconfigure_us_p99", "us", "lower", 0},
	{"mechanism.calls", "count", "lower", 0},
	{"mechanism.change_share", "ratio", "lower", 0},
	{"admin.put_mechanism_ms_p50", "ms", "lower", 0},
	{"admin.series_ms_p50", "ms", "lower", 0},
	{"admin.series_ms_p95", "ms", "lower", 0},
	{"admin.stats_ms_p50", "ms", "lower", 0},
	{"admin.series_bytes_mean", "B", "lower", 0},
	{"admin.errors", "count", "lower", 0},
	{"tenancy.tick_us_p50", "us", "lower", 0},
	{"tenancy.tick_us_p99", "us", "lower", 0},
	{"tenancy.grants", "count", "lower", 0},
	{"tenancy.revokes", "count", "lower", 0},
	{"tenancy.rejected", "count", "lower", 0},
	{"tenancy.admit_ns_p50", "ns", "lower", 0},
	{"metrics.snapshot_us_p50", "us", "lower", 0},
	{"metrics.dropped", "count", "lower", 0},
	{"metrics.points_per_s", "1/s", "higher", 0},
	{"replay.record_us_p50", "us", "lower", 0},
	{"replay.bytes_per_entry", "B", "lower", 0},
	{"stage.busy_share_max", "ratio", "higher", 0},
	{"stage.work_ns_p50", "ns", "lower", 0},
	{"go.mallocs_per_item", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.goroutines_peak", "count", "lower", 0},
	{"workload.late_ms_p95", "ms", "lower", 0},
	{"workload.offered_per_s", "1/s", "higher", 0},
	{"workload.sleep_floor_us", "us", "lower", 0},
	{"workload.resp_p99_ms", "ms", "lower", 0},
	{"workload.resp_samples", "count", "higher", 0},
	{"workload.backlog_end", "count", "lower", 0},
	{"workload.failed_share", "ratio", "lower", 0},
	{"baseline.bare_items_per_s", "1/s", "higher", 0},
	{"baseline.seq_items_per_s", "1/s", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// runSeconds is the length of one measured window under the driver.
const runSeconds = 20

// manifest renders BENCHMARK.json from the definitions above, so the file
// at the repository root and the runner cannot drift apart unnoticed (the
// smoke test compares them).
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, name := range scenarioNames() {
		sc, err := loadScenario(name)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, workload{sc.Name, sc.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
