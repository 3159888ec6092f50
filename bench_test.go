// Benchmarks that regenerate the paper's evaluation artifacts, one target
// per table/figure (see DESIGN.md's per-experiment index), plus ablations
// of the design choices the mechanisms encode. Custom metrics carry the
// figures' units:
//
//	go test -bench=. -benchmem
//
// The quantitative sweeps run on the deterministic discrete-event
// simulator, so ns/op measures harness cost while the reported metrics
// (ms-response, queries/s, watts) reproduce the paper's series.
package dope_test

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dope"
	"dope/internal/apps"
	"dope/internal/harness"
	"dope/internal/mechanism"
	"dope/internal/sim"
)

// benchScale keeps each harness invocation fast under testing.B iteration.
const benchScale = 0.25

func runExperiment(b *testing.B, id string) *harness.Table {
	b.Helper()
	var tab *harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = harness.Run(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// BenchmarkFig2a regenerates Figure 2(a): execution time vs load per inner DoP.
func BenchmarkFig2a(b *testing.B) {
	tab := runExperiment(b, "fig2a")
	b.ReportMetric(float64(len(tab.Rows)), "loads")
}

// BenchmarkFig2b regenerates Figure 2(b): throughput vs load per inner DoP.
func BenchmarkFig2b(b *testing.B) {
	tab := runExperiment(b, "fig2b")
	b.ReportMetric(float64(len(tab.Rows)), "loads")
}

// BenchmarkFig2c regenerates Figure 2(c): response time, statics vs oracle.
func BenchmarkFig2c(b *testing.B) {
	runExperiment(b, "fig2c")
	// Report the oracle's advantage at the crossover load (0.5).
	model := sim.Transcode()
	seq := sim.RunServer(model, sim.ServerConfig{Tasks: 200, LoadFactor: 0.5, Seed: 11, OuterK: 24, InnerM: 1})
	ora := sim.RunServer(model, sim.ServerConfig{Tasks: 200, LoadFactor: 0.5, Seed: 11, Oracle: true})
	b.ReportMetric(seq.MeanResponse*1000, "static-ms")
	b.ReportMetric(ora.MeanResponse*1000, "oracle-ms")
}

// BenchmarkFig11 regenerates each panel of Figure 11.
func BenchmarkFig11(b *testing.B) {
	for _, id := range []string{"fig11a", "fig11b", "fig11c", "fig11d"} {
		b.Run(id, func(b *testing.B) {
			runExperiment(b, id)
		})
	}
}

// BenchmarkFig12 regenerates Figure 12: ferret response time, statics vs DoPE.
func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12")
}

// BenchmarkFig13 regenerates Figure 13: the TBF search-then-stabilize trace.
func BenchmarkFig13(b *testing.B) {
	runExperiment(b, "fig13")
	res := sim.RunPipeline(sim.Ferret(), sim.PipelineConfig{
		Tasks: 1500, Mechanism: &mechanism.TBF{Threads: 24},
		Extents: []int{1, 1, 1, 1, 1, 1}, ControlEvery: 0.02,
	})
	b.ReportMetric(res.SteadyThroughput, "queries/s")
}

// BenchmarkFig14 regenerates Figure 14: the TPC power-throughput trace.
func BenchmarkFig14(b *testing.B) {
	runExperiment(b, "fig14")
	budget := 0.9 * 800.0
	res := sim.RunPipeline(sim.Ferret(), sim.PipelineConfig{
		Tasks: 1500, Mechanism: &mechanism.TPC{Threads: 24, Budget: budget},
		Extents: []int{1, 1, 1, 1, 1, 1}, ControlEvery: 0.02, PowerBudget: budget,
	})
	b.ReportMetric(res.MeanPower, "watts")
	b.ReportMetric(res.SteadyThroughput, "queries/s")
}

// BenchmarkTable5 regenerates the Figure 15 table.
func BenchmarkTable5(b *testing.B) {
	tab := runExperiment(b, "table5")
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// BenchmarkTable3 regenerates the mechanism LoC table.
func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3")
}

// BenchmarkTable4 regenerates the application port table.
func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "table4")
}

// BenchmarkReconfigDip measures the live reconfiguration cost: forced extent
// toggles on a running ferret batch under in-place worker-group resizing,
// plus the simulator's view of the same extent-only search.
func BenchmarkReconfigDip(b *testing.B) {
	runExperiment(b, "reconfig-dip")
	res := sim.RunPipeline(sim.Ferret(), sim.PipelineConfig{
		Tasks: 1500, ControlEvery: 0.02,
		Mechanism:  &mechanism.TBF{Threads: 24, DisableFusion: true},
		Extents:    []int{1, 1, 1, 1, 1, 1},
		ResizeCost: 0.002, DrainCost: 0.05,
	})
	// Whole-run throughput, not steady-state: the resize freeze lands in the
	// mechanism's search transient.
	b.ReportMetric(res.Throughput, "inplace-q/s")
}

// BenchmarkFaults measures throughput under 1% injected panics for each
// failure policy: fail-stop terminates, fail-restart and fail-degrade
// absorb the faults and stay within 2x of the fault-free baseline.
func BenchmarkFaults(b *testing.B) {
	runExperiment(b, "faults")
}

// BenchmarkStalls measures the stall-tolerance and overload-protection
// table: fail-stop surfaces an injected stall (with a goroutine dump)
// within 2x the stage deadline, fail-restart/fail-degrade finish the batch
// within 2x of the stall-free baseline, and load shedding keeps p99 sojourn
// bounded at 2x overload while blocking backpressure does not.
func BenchmarkStalls(b *testing.B) {
	tab := runExperiment(b, "stalls")
	byArm := make(map[string][]string, len(tab.Rows))
	for _, row := range tab.Rows {
		byArm[row[0]] = row
	}
	p99 := func(arm string) float64 {
		row := byArm[arm]
		if row == nil {
			b.Fatalf("arm %q missing", arm)
		}
		v, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			b.Fatalf("arm %q p99 %q: %v", arm, row[6], err)
		}
		return v
	}
	b.ReportMetric(p99("block"), "block-p99-ms")
	b.ReportMetric(p99("shed-newest"), "shed-p99-ms")
}

// --- ablations of design choices (DESIGN.md) --------------------------------

// BenchmarkAblationHysteresis sweeps WQT-H's hysteresis lengths: too little
// hysteresis toggles configurations constantly; too much reacts late.
func BenchmarkAblationHysteresis(b *testing.B) {
	model := sim.Transcode()
	for _, h := range []int{1, 3, 10, 40} {
		b.Run(byInt("n", h), func(b *testing.B) {
			var resp float64
			var reconfs int
			for i := 0; i < b.N; i++ {
				m := &mechanism.WQTH{Threads: 24, Mmax: 8, Threshold: 6, NOn: h, NOff: h}
				res := sim.RunServer(model, sim.ServerConfig{
					Tasks: 300, LoadFactor: 0.7, Seed: 3, Mechanism: m,
					ControlEvery: 0.01, OuterK: 24, InnerM: 1,
				})
				resp = res.MeanResponse
				reconfs = res.Reconfigurations
			}
			b.ReportMetric(resp*1000, "ms-response")
			b.ReportMetric(float64(reconfs), "reconfigs")
		})
	}
}

// BenchmarkAblationSlope sweeps WQ-Linear's Qmax (Equation 3's k): small
// Qmax degrades DoP aggressively, large Qmax tolerates deep queues.
func BenchmarkAblationSlope(b *testing.B) {
	model := sim.Transcode()
	for _, qmax := range []float64{2, 6, 14, 40} {
		b.Run(byInt("qmax", int(qmax)), func(b *testing.B) {
			var resp float64
			for i := 0; i < b.N; i++ {
				m := &mechanism.WQLinear{Threads: 24, Mmax: 8, Mmin: 1, Qmax: qmax}
				res := sim.RunServer(model, sim.ServerConfig{
					Tasks: 300, LoadFactor: 0.8, Seed: 3, Mechanism: m,
					ControlEvery: 0.01, OuterK: 3, InnerM: 8,
				})
				resp = res.MeanResponse
			}
			b.ReportMetric(resp*1000, "ms-response")
		})
	}
}

// BenchmarkAblationFusionThreshold sweeps TBF's imbalance threshold: at 0 it
// always fuses, at 1 it never does (becoming TB).
func BenchmarkAblationFusionThreshold(b *testing.B) {
	model := sim.Ferret()
	for _, th := range []float64{0.01, 0.5, 0.99} {
		b.Run(byInt("thx100", int(th*100)), func(b *testing.B) {
			var tput float64
			var alt int
			for i := 0; i < b.N; i++ {
				res := sim.RunPipeline(model, sim.PipelineConfig{
					Tasks: 1500, ControlEvery: 0.02,
					Mechanism: &mechanism.TBF{Threads: 24, FusionThreshold: th},
					Extents:   []int{1, 1, 1, 1, 1, 1},
				})
				tput = res.SteadyThroughput
				alt = res.FinalAlt
			}
			b.ReportMetric(tput, "queries/s")
			b.ReportMetric(float64(alt), "final-alt")
		})
	}
}

// BenchmarkContextTokens compares the budgeted context pool against
// oversubscribed pools (the Pthreads-OS row) in the simulator.
func BenchmarkContextTokens(b *testing.B) {
	model := sim.Dedup()
	for _, over := range []bool{false, true} {
		name := "budgeted"
		if over {
			name = "oversubscribed"
		}
		b.Run(name, func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				res := sim.RunPipeline(model, sim.PipelineConfig{
					Tasks: 1500, Extents: []int{1, 10, 11, 1}, Oversubscribed: over,
				})
				tput = res.SteadyThroughput
			}
			b.ReportMetric(tput, "items/s")
		})
	}
}

// BenchmarkMonitorOverhead checks the paper's §8.2 claim that run-time
// monitoring costs under 1% even when every task instance is monitored: it
// measures the kernel alone and the kernel inside a monitored Begin/End
// section on the real runtime, and reports the overhead percentage.
func BenchmarkMonitorOverhead(b *testing.B) {
	const units = 500_000 // ≈ 2 ms of real work per iteration (typical task grain)

	bare := time.Now()
	for i := 0; i < b.N; i++ {
		apps.Burn(units)
	}
	bareD := time.Since(bare)

	var iters atomic.Int64
	spec := &dope.NestSpec{Name: "bench", Alts: []*dope.AltSpec{{
		Name:   "loop",
		Stages: []dope.StageSpec{{Name: "worker", Type: dope.SEQ}},
		Make: func(item any) (*dope.AltInstance, error) {
			return &dope.AltInstance{Stages: []dope.StageFns{{
				Fn: func(w *dope.Worker) dope.Status {
					if int(iters.Add(1)) > b.N {
						return dope.Finished
					}
					w.Begin() //dopevet:ignore suspendcheck benchmark runs under a static configuration; statuses are irrelevant
					apps.Burn(units)
					w.End()
					return dope.Executing
				},
			}}}, nil
		},
	}}}
	d, err := dope.Create(spec, dope.StaticGoal(1))
	if err != nil {
		b.Fatal(err)
	}
	monStart := time.Now()
	if err := d.Destroy(); err != nil {
		b.Fatal(err)
	}
	monD := time.Since(monStart)
	if bareD > 0 {
		over := (monD.Seconds() - bareD.Seconds()) / bareD.Seconds() * 100
		b.ReportMetric(over, "overhead-%")
	}
}

// byInt builds a sub-benchmark name.
func byInt(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkAblationPlacement compares task placements on the 4-socket
// topology (the paper's §1 locality decision) for the fine-grained ferret
// variant.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, p := range []struct {
		name string
		val  sim.Placement
	}{
		{"scatter", sim.PlaceScatter},
		{"contiguous", sim.PlaceContiguous},
		{"none", sim.PlaceNone},
	} {
		b.Run(p.name, func(b *testing.B) {
			model := sim.Ferret()
			model.HopTime = 1.0e-3
			var tput float64
			for i := 0; i < b.N; i++ {
				res := sim.RunPipeline(model, sim.PipelineConfig{
					Tasks: 800, Extents: []int{1, 2, 3, 5, 10, 1}, Placement: p.val,
				})
				tput = res.SteadyThroughput
			}
			b.ReportMetric(tput, "queries/s")
		})
	}
}

// BenchmarkExtEDP regenerates the energy-delay-product extension table.
func BenchmarkExtEDP(b *testing.B) {
	runExperiment(b, "ext-edp")
}

// BenchmarkExtLocality regenerates the placement extension table.
func BenchmarkExtLocality(b *testing.B) {
	runExperiment(b, "ext-locality")
}
