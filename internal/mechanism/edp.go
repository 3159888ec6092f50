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
	// MinSamples gates acting before the monitors have signal (default 8).
	MinSamples uint64
	// SettleTicks is how many control ticks to wait after a change before
	// judging it (default 3).
	SettleTicks int
	// Tolerance is the relative objective change treated as noise
	// (default 0.02).
	Tolerance float64

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
	nest := r.Root
	if m.Path != "" {
		nest = r.Nest(m.Path)
	}
	if nest == nil {
		return nil
	}
	if m.seen.changed(nest) {
		m.edpState = edpState{}
	}
	minSamples := m.MinSamples
	if minSamples == 0 {
		minSamples = 8
	}
	for _, st := range nest.Stages {
		if st.Iterations < minSamples {
			return nil
		}
	}
	if m.settle > 0 {
		m.settle--
		return nil
	}
	if !m.started {
		m.started = true
		m.growing = true
	}
	threads := m.Threads
	if threads <= 0 {
		threads = r.Contexts
	}
	obj := m.objective(r, nest)
	cur := currentExtents(nest)

	cfg := r.Config
	target := cfg
	if m.Path != "" && nest != r.Root {
		target = childConfigAt(cfg, r.Root, nest)
		if target == nil {
			return nil
		}
	}

	if m.pending {
		m.pending = false
		if obj < m.lastObj*(1-m.tolerance()) && m.lastExtents != nil {
			// The step hurt the energy-delay product: revert and flip the
			// climb direction. Two consecutive failed directions mean the
			// optimum is here; hold.
			m.growing = !m.growing
			m.stalls++
			next := append([]int(nil), m.lastExtents...)
			m.lastExtents = nil
			m.settle = m.settleTicks()
			target.Alt = nest.AltIndex
			target.Extents = next
			return cfg
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
		fdp := &FDP{Threads: threads}
		next = fdp.step(nest.Stages, cur, threads)
		if next == nil {
			m.growing = false
		}
	}
	if next == nil {
		next = m.shrink(nest.Stages, cur)
	}
	if next == nil {
		return nil
	}
	m.pending = true
	m.lastExtents = cur
	m.settle = m.settleTicks()
	target.Alt = nest.AltIndex
	target.Extents = clampToSpec(next, nest.Stages)
	return cfg
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

// shrink removes one worker from the most over-provisioned PAR stage.
func (m *EDP) shrink(stages []core.StageReport, cur []int) []int {
	weights := execWeights(stages)
	fast, bestC := -1, -1.0
	for i, st := range stages {
		if st.Type != core.PAR || cur[i] <= 1 {
			continue
		}
		c := float64(cur[i])
		if weights[i] > 0 {
			c = float64(cur[i]) / weights[i]
		}
		if c > bestC {
			fast, bestC = i, c
		}
	}
	if fast < 0 {
		return nil
	}
	next := append([]int(nil), cur...)
	next[fast]--
	return next
}

func (m *EDP) settleTicks() int {
	if m.SettleTicks > 0 {
		return m.SettleTicks
	}
	return 3
}

func (m *EDP) tolerance() float64 {
	if m.Tolerance > 0 {
		return m.Tolerance
	}
	return 0.02
}
