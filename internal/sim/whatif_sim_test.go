package sim

import (
	"math"
	"testing"

	"dope/internal/core"
	"dope/internal/mechanism"
)

// captureMechanism records the latest observation snapshot without ever
// reconfiguring — a probe for running the what-if profiler against the
// simulator's synthesized reports.
type captureMechanism struct{ last *core.Report }

func (c *captureMechanism) Name() string                            { return "capture" }
func (c *captureMechanism) Reconfigure(r *core.Report) *core.Config { c.last = r; return nil }

// TestGradientBeatsWorkQueueMechanismsOnFerret is the mechanism-level
// acceptance check: on the uneven ferret pipeline the what-if-driven
// Gradient, started from all-ones, must reach a steady-state throughput at
// least as high as WQT-H's and WQ-Linear's. Those two own the server-shaped
// applications and return nil for flat pipelines, so here they hold the
// paper's even static distribution — exactly the configuration whose rank
// starvation Figure 12 documents — while Gradient walks contexts toward the
// profiler's predicted payoff.
func TestGradientBeatsWorkQueueMechanismsOnFerret(t *testing.T) {
	model := Ferret()
	ones := []int{1, 1, 1, 1, 1, 1}
	even := []int{1, 5, 5, 5, 6, 1}
	const tasks = 3000

	grad := RunPipeline(model, PipelineConfig{
		Tasks: tasks, ControlEvery: 0.02,
		Mechanism: &mechanism.Gradient{Threads: 24}, Extents: ones,
	})
	wqth := RunPipeline(model, PipelineConfig{
		Tasks: tasks, ControlEvery: 0.02,
		Mechanism: &mechanism.WQTH{Threads: 24, Mmax: 8, Threshold: 6}, Extents: even,
	})
	wql := RunPipeline(model, PipelineConfig{
		Tasks: tasks, ControlEvery: 0.02,
		Mechanism: &mechanism.WQLinear{Threads: 24, Mmax: 8, Mmin: 1, Qmax: 14}, Extents: even,
	})

	if grad.Reconfigurations == 0 {
		t.Fatal("Gradient never moved a context")
	}
	if grad.SteadyThroughput < wqth.SteadyThroughput {
		t.Fatalf("Gradient steady %.0f below WQT-H %.0f",
			grad.SteadyThroughput, wqth.SteadyThroughput)
	}
	if grad.SteadyThroughput < wql.SteadyThroughput {
		t.Fatalf("Gradient steady %.0f below WQ-Linear %.0f",
			grad.SteadyThroughput, wql.SteadyThroughput)
	}
	// It must also clearly beat the even static baseline it was never given
	// — i.e. the gain comes from the profile, not the starting point.
	static := RunPipeline(model, PipelineConfig{Tasks: tasks, Extents: even})
	if grad.SteadyThroughput < 1.5*static.SteadyThroughput {
		t.Fatalf("Gradient steady %.0f does not separate from even static %.0f",
			grad.SteadyThroughput, static.SteadyThroughput)
	}
}

// TestGradientIgnoresServerShapes pins the division of labor: Gradient must
// decline server-shaped applications (nested loops) so it never fights the
// work-queue mechanisms that own them.
func TestGradientIgnoresServerShapes(t *testing.T) {
	model := Transcode()
	m := &mechanism.Gradient{Threads: 24}
	res := RunServer(model, ServerConfig{
		Tasks: 200, LoadFactor: 0.5, Seed: 11, Mechanism: m,
		OuterK: 24, InnerM: 1,
	})
	if res.Reconfigurations != 0 {
		t.Fatalf("Gradient reconfigured a server-shaped app %d times", res.Reconfigurations)
	}
}

// TestWhatIfRanksSeededBottleneckAcrossSeeds is the profiler-level
// acceptance check: across 10 deterministic seeds of the ferret pipeline
// under its even static distribution, the what-if ranking must place the
// rank stage — the analytic bottleneck (demand 14·base/6 against ≤0.8·base
// elsewhere) — first in at least 9 runs, with finite payoffs throughout.
func TestWhatIfRanksSeededBottleneckAcrossSeeds(t *testing.T) {
	model := Ferret()
	even := []int{1, 5, 5, 5, 6, 1}
	top1 := 0
	for seed := int64(1); seed <= 10; seed++ {
		probe := &captureMechanism{}
		RunPipeline(model, PipelineConfig{
			Tasks: 1500, LoadFactor: 0.5, Seed: seed,
			ControlEvery: 0.02, Mechanism: probe, Extents: even,
		})
		if probe.last == nil {
			t.Fatalf("seed %d: control loop never ticked", seed)
		}
		rep := probe.last.WhatIf()
		if !rep.Valid {
			t.Fatalf("seed %d: profile invalid: %s", seed, rep.Reason)
		}
		for _, st := range rep.Stages {
			if math.IsNaN(st.PayoffDoP) || math.IsInf(st.PayoffDoP, 0) ||
				math.IsNaN(st.PayoffService) || math.IsInf(st.PayoffService, 0) {
				t.Fatalf("seed %d: non-finite payoff for %s", seed, st.Name)
			}
		}
		if rep.Bottleneck == "rank" && rep.Stages[0].Name == "rank" {
			top1++
		}
	}
	if top1 < 9 {
		t.Fatalf("rank ranked first in only %d/10 seeded runs, want >= 9", top1)
	}
}
