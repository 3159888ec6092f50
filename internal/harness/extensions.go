package harness

import (
	"dope"
	"dope/internal/core"
	"dope/internal/mechanism"
	"dope/internal/sim"
)

// The experiments in this file go beyond the paper's evaluation section,
// exercising capabilities the paper describes but does not measure: the
// task-placement decision of §1 and the administrator-invented
// energy-delay-product goal of §4.

// ExtLocality quantifies the placement axis: the ferret pipeline run with
// topology-oblivious scattering, with the executive's locality-maximizing
// contiguous placement, and with the topology-free baseline (the headline
// experiments' model).
func ExtLocality(scale float64) *Table {
	// A fine-grained variant of ferret: items are small feature vectors, so
	// forwarding them costs a substantial fraction of stage work and the
	// placement decision has something to move.
	model := sim.Ferret()
	model.HopTime = 1.0e-3
	t := &Table{
		ID:     "ext-locality",
		Title:  "EXTENSION: fine-grained ferret throughput by task placement (4-socket topology)",
		Header: []string{"placement", "throughput (q/s)", "vs scatter"},
		Notes: []string{
			"§1: DoPE decides \"on which hardware thread should each stage be placed to maximize locality of communication\"",
			"cross-socket transfers cost 3x the on-socket forwarding time; this variant forwards heavyweight items",
		},
	}
	extents := []int{1, 2, 3, 5, 10, 1}
	run := func(p sim.Placement) float64 {
		return sim.RunPipeline(model, sim.PipelineConfig{
			Tasks: tasksAt(scale, 2000), Extents: extents, Placement: p,
		}).SteadyThroughput
	}
	scatter := run(sim.PlaceScatter)
	rows := []struct {
		name string
		p    sim.Placement
	}{
		{"scatter (naive pool)", sim.PlaceScatter},
		{"contiguous (DoPE locality)", sim.PlaceContiguous},
		{"no-topology reference", sim.PlaceNone},
	}
	for _, r := range rows {
		tp := run(r.p)
		t.Rows = append(t.Rows, []string{r.name, f1(tp), fx(tp / scatter)})
	}
	return t
}

// ExtEDP demonstrates the energy-delay-product goal, dope.MinEnergyDelay:
// EDP's chosen operating point against pure throughput maximization (TBF restricted to the
// pipeline alternative) and against all-ones, with superlinear power.
func ExtEDP(scale float64) *Table {
	model := sim.Ferret()
	t := &Table{
		ID:     "ext-edp",
		Title:  "EXTENSION: ferret under the min energy-delay-product goal (§4's example)",
		Header: []string{"approach", "throughput (q/s)", "mean power (W)", "J/item", "EDP/item (mJ·s, lower is better)"},
		Notes: []string{
			"EDP per item = power/throughput²; with the platform's linear power model the optimum stays wide,",
			"but under superlinear power it retreats from full width (see TestEDPStopsBelowFullWidthWhenPowerIsSteep)",
		},
	}
	// EDP's climb needs room to converge (settle ticks between steps), so
	// this experiment enforces a floor regardless of scale.
	tasks := tasksAt(scale, 3000)
	if tasks < 3000 {
		tasks = 3000
	}
	run := func(name string, mech core.Mechanism, extents []int) {
		res := sim.RunPipeline(model, sim.PipelineConfig{
			Tasks: tasks, Extents: extents, Mechanism: mech,
			ControlEvery: 0.02, PowerBudget: 1, PDUPeriod: 0.02, SampleEvery: 0.2,
		})
		edp := 0.0
		if res.SteadyThroughput > 0 {
			edp = res.MeanPower / (res.SteadyThroughput * res.SteadyThroughput) * 1e6
		}
		perItem := res.EnergyJ / float64(tasks)
		t.Rows = append(t.Rows, []string{name, f1(res.SteadyThroughput), f1(res.MeanPower), f3(perItem), f3(edp)})
	}
	ones := []int{1, 1, 1, 1, 1, 1}
	run("all-ones static", nil, ones)
	run("DoPE-TB (max throughput)", &mechanism.TBF{Threads: 24, DisableFusion: true}, ones)
	run("DoPE-EDP", dope.MinEnergyDelay(24).Mechanism, ones)
	return t
}
