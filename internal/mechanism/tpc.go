package mechanism

import (
	"fmt"

	"dope/internal/core"
	"dope/internal/platform"
)

// TPC is the Throughput-Power Controller (§7.3) for the goal "maximize
// throughput with N threads and P watts". It is a closed-loop controller
// over the SystemPower platform feature (sampled through the rate-limited
// PDU):
//
//  1. Ramp: start every task at extent 1 and repeatedly grant one worker to
//     the least-throughput task while the power budget holds and throughput
//     improves — the ramp phase visible in Figure 14.
//  2. On overshoot: retreat to the previous extent total and explore
//     alternative configurations with the same total extent, consulting the
//     recorded history of configuration → throughput.
//  3. Stable: hold the best configuration found, monitoring continuously;
//     a power or throughput transient re-triggers exploration.
type TPC struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Budget is the power target in watts.
	Budget float64
	// Path selects the nest to control; empty means the root nest.
	Path string
	// MinSamples gates acting before monitors have signal (default 8).
	MinSamples uint64
	// ExploreSteps is how many same-total permutations to try after the
	// budget first binds (default 4).
	ExploreSteps int
	// SettleTicks is how many control ticks to wait after each change
	// before judging its effect, letting the monitors' moving averages
	// catch up with the new configuration (default 3).
	SettleTicks int

	seen stageSet
	tpcState
}

// tpcState is everything the controller has learned. All of it is per
// stage set — extent vectors, and a history keyed by extent signature —
// so Reconfigure starts over from the ramp when the alternative changes
// under it.
type tpcState struct {
	phase        tpcPhase
	history      map[string]float64 // config signature -> observed rate
	bestRate     float64
	bestExtents  []int
	explored     int
	rampPending  bool
	rampLastRate float64
	rampFlats    int
	settle       int
}

type tpcPhase int

const (
	tpcRamp tpcPhase = iota
	tpcExplore
	tpcStable
)

// Name implements core.Mechanism.
func (m *TPC) Name() string { return "TPC" }

// Reconfigure implements core.Mechanism.
func (m *TPC) Reconfigure(r *core.Report) *core.Config {
	nest := nestAt(r, m.Path)
	if nest == nil {
		return nil
	}
	if m.seen.changed(nest) {
		m.tpcState = tpcState{}
	}
	gate := m.MinSamples
	if gate == 0 {
		gate = minSamples
	}
	if !warm(nest, gate) {
		return nil
	}
	if m.settle > 0 {
		// A change was just applied; let the monitors settle before
		// judging it or proposing another.
		m.settle--
		return nil
	}
	if m.history == nil {
		m.history = make(map[string]float64)
	}
	power, err := r.Features.Value(platform.FeatureSystemPower)
	if err != nil {
		power = 0 // no power feature registered: behave as unconstrained
	}
	rate := pipelineRate(nest.Stages)
	cur := currentExtents(nest)
	sig := extentSig(cur)
	m.history[sig] = rate
	if rate > m.bestRate && (m.Budget <= 0 || power <= m.Budget) {
		m.bestRate = rate
		m.bestExtents = append([]int(nil), cur...)
	}

	overBudget := m.Budget > 0 && power > m.Budget
	var next []int
	switch m.phase {
	case tpcRamp:
		switch {
		case overBudget:
			// Retreat one step and start exploring at the reduced total.
			next = shrink(nest.Stages, cur)
			m.phase = tpcExplore
			m.explored = 0
		case m.rampPending && rate < m.rampLastRate*(1-noise):
			// The last grant regressed throughput (§7.3: increment "if
			// throughput improves"): stop ramping, start exploring.
			m.rampPending = false
			m.phase = tpcExplore
			m.explored = 0
		case m.rampPending && rate < m.rampLastRate*(1+noise) && m.rampFlats >= 1:
			// Two consecutive grants bought nothing beyond noise: the ramp
			// has topped out.
			m.rampPending = false
			m.phase = tpcExplore
			m.explored = 0
		default:
			if m.rampPending && rate < m.rampLastRate*(1+noise) {
				m.rampFlats++
			} else {
				m.rampFlats = 0
			}
			next = climb(nest.Stages, cur, budget(m.Threads, r))
			if next == nil {
				m.phase = tpcExplore
				m.explored = 0
			} else {
				m.rampPending = true
				m.rampLastRate = rate
			}
		}
	case tpcExplore:
		steps := m.ExploreSteps
		if steps <= 0 {
			steps = 4
		}
		if overBudget {
			next = shrink(nest.Stages, cur)
		} else if m.explored < steps {
			m.explored++
			next = m.permute(nest.Stages, cur)
		} else {
			m.phase = tpcStable
			if m.bestExtents != nil && extentSig(m.bestExtents) != sig {
				next = append([]int(nil), m.bestExtents...)
			}
		}
	case tpcStable:
		if overBudget {
			next = shrink(nest.Stages, cur)
			m.phase = tpcExplore
			m.explored = 0
		}
	}
	if next == nil {
		return nil
	}
	m.settle = settle(m.SettleTicks)
	return install(r, nest, nest.AltIndex, clampToSpec(next, nest.Stages))
}

// permute proposes an unexplored configuration with the same total extent
// by moving one worker from the fastest to the slowest stage; falls back to
// nil when every neighbor is already in the history.
func (m *TPC) permute(stages []core.StageReport, cur []int) []int {
	weights := execWeights(stages)
	slow := bottleneck(stages, cur, weights)
	if slow < 0 {
		return nil
	}
	for i, st := range stages {
		if i == slow || st.Type != core.PAR || cur[i] <= 1 {
			continue
		}
		next := append([]int(nil), cur...)
		next[i]--
		next[slow]++
		if _, seen := m.history[extentSig(next)]; !seen {
			return next
		}
	}
	return nil
}

func extentSig(e []int) string { return fmt.Sprint(e) }
