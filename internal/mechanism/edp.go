package mechanism

import (
	"dope/internal/core"
	"dope/internal/platform"
)

// EDP pursues "minimize the energy-delay product", the example of an
// administrator-invented goal in the paper's §4. For a throughput-oriented
// loop, energy per item is Power/throughput and delay per item is
// 1/throughput, so EDP per item ∝ Power/throughput²; EDP hill-climbs the
// inverse objective throughput²/Power. Unlike pure throughput
// maximization, the optimum can sit below the machine's full width: the
// last few workers buy little rate but full power.
//
// Without a SystemPower feature the objective degenerates to throughput²
// and EDP behaves like a damped FDP.
type EDP struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Path selects the nest to tune; empty means the root nest.
	Path string
	// SettleTicks is how many control ticks to wait after a change before
	// judging it (default 3).
	SettleTicks int

	seen stageSet
	edpState
}

// edpState is the climb's memory; it is per stage set (see stageSet).
type edpState struct {
	growing     bool // current hill-climb direction (start growing)
	started     bool
	pending     bool
	lastObj     float64
	lastExtents []int
	settle      int
	stalls      int
}

// Name implements core.Mechanism.
func (m *EDP) Name() string { return "EDP" }

// Reconfigure implements core.Mechanism.
func (m *EDP) Reconfigure(r *core.Report) *core.Config {
	nest := nestAt(r, m.Path)
	if nest == nil {
		return nil
	}
	if m.seen.changed(nest) {
		m.edpState = edpState{}
	}
	if !warm(nest, minSamples) {
		return nil
	}
	if m.settle > 0 {
		m.settle--
		return nil
	}
	if !m.started {
		m.started = true
		m.growing = true
	}
	obj := m.objective(r, nest)
	cur := currentExtents(nest)

	if m.pending {
		m.pending = false
		if obj < m.lastObj*(1-noise) && m.lastExtents != nil {
			// The step hurt the energy-delay product: revert and flip the
			// climb direction. Two consecutive failed directions mean the
			// optimum is here; hold.
			m.growing = !m.growing
			m.stalls++
			next := append([]int(nil), m.lastExtents...)
			m.lastExtents = nil
			m.settle = settle(m.SettleTicks)
			return install(r, nest, nest.AltIndex, next)
		}
		m.lastObj = obj
		m.stalls = 0
	}
	if m.stalls >= 2 {
		return nil // converged: both directions regress
	}
	if m.lastObj == 0 {
		m.lastObj = obj
	}

	var next []int
	if m.growing {
		next = climb(nest.Stages, cur, budget(m.Threads, r))
		if next == nil {
			m.growing = false
		}
	}
	if next == nil {
		next = shrink(nest.Stages, cur)
	}
	if next == nil {
		return nil
	}
	m.pending = true
	m.lastExtents = cur
	m.settle = settle(m.SettleTicks)
	return install(r, nest, nest.AltIndex, clampToSpec(next, nest.Stages))
}

// objective returns throughput²/power (or throughput² without a power
// feature) — the inverse of the per-item energy-delay product.
func (m *EDP) objective(r *core.Report, nest *core.NestReport) float64 {
	rate := pipelineRate(nest.Stages)
	power, err := r.Features.Value(platform.FeatureSystemPower)
	if err != nil || power <= 0 {
		return rate * rate
	}
	return rate * rate / power
}
