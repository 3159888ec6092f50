package mechanism

import (
	"dope/internal/core"
)

// FDP is Feedback-Directed Pipelining (Suleman et al., PACT 2010), one of
// the two prior-work mechanisms the paper reimplements on top of DoPE's
// interface (§7.2). FDP hill-climbs on measured throughput: each epoch it
// grants one more worker to the current bottleneck stage (the stage with
// the lowest capacity = extent/execTime); when the thread budget is
// exhausted it instead moves a worker from the most over-provisioned stage
// to the bottleneck; any step that fails to improve the smoothed pipeline
// throughput is reverted and the climb pauses until the landscape changes.
type FDP struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Path selects the nest to tune; empty means the root nest.
	Path string

	seen stageSet
	fdpState
}

// fdpState is the climb's memory; it is per stage set (see stageSet).
type fdpState struct {
	lastExtents []int
	lastRate    float64
	pending     bool // a step was taken and awaits evaluation
	stalled     bool // last step regressed; hold until rate changes materially
	stallRate   float64
}

// Name implements core.Mechanism.
func (m *FDP) Name() string { return "FDP" }

// Reconfigure implements core.Mechanism.
func (m *FDP) Reconfigure(r *core.Report) *core.Config {
	nest := nestAt(r, m.Path)
	if nest == nil {
		return nil
	}
	if m.seen.changed(nest) {
		m.fdpState = fdpState{}
	}
	if !warm(nest, minSamples) {
		return nil
	}
	rate := pipelineRate(nest.Stages)
	cur := currentExtents(nest)

	if m.pending {
		m.pending = false
		if rate+1e-12 < m.lastRate && m.lastExtents != nil {
			// The step regressed: revert and stall. The stall baseline is
			// captured on the next observation of the reverted
			// configuration, not now, because the current rate still
			// reflects the regressed configuration.
			m.stalled = true
			m.stallRate = -1
			return install(r, nest, nest.AltIndex, append([]int(nil), m.lastExtents...))
		}
		m.lastRate = rate
	}
	if m.stalled {
		if m.stallRate < 0 {
			m.stallRate = rate
			return nil
		}
		// Resume climbing only when the workload has visibly shifted.
		if relDiff(rate, m.stallRate) < 0.15 {
			return nil
		}
		m.stalled = false
		m.lastRate = rate
	}
	if m.lastRate == 0 {
		m.lastRate = rate
	}

	next := climb(nest.Stages, cur, budget(m.Threads, r))
	if next == nil {
		return nil
	}
	m.lastExtents = cur
	m.pending = true
	return install(r, nest, nest.AltIndex, next)
}
