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
	// MinSamples gates acting before the monitors have signal (default 8).
	MinSamples uint64

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
	nest := r.Root
	if m.Path != "" {
		nest = r.Nest(m.Path)
	}
	if nest == nil {
		return nil
	}
	if m.seen.changed(nest) {
		m.fdpState = fdpState{}
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
	threads := m.Threads
	if threads <= 0 {
		threads = r.Contexts
	}
	rate := pipelineRate(nest.Stages)

	cfg := r.Config
	target := cfg
	if m.Path != "" && nest != r.Root {
		target = childConfigAt(cfg, r.Root, nest)
		if target == nil {
			return nil
		}
	}
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
			target.Alt = nest.AltIndex
			target.Extents = append([]int(nil), m.lastExtents...)
			return cfg
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

	next := m.step(nest.Stages, cur, threads)
	if next == nil {
		return nil
	}
	m.lastExtents = cur
	m.pending = true
	target.Alt = nest.AltIndex
	target.Extents = next
	return cfg
}

// step proposes the next hill-climbing move, or nil when no move exists.
func (m *FDP) step(stages []core.StageReport, cur []int, budget int) []int {
	weights := execWeights(stages)
	slow := bottleneck(stages, cur, weights)
	if slow < 0 {
		return nil
	}
	next := append([]int(nil), cur...)
	if stages[slow].MaxDoP > 0 && cur[slow] >= stages[slow].MaxDoP {
		return nil
	}
	if sumExtents(cur) < budget {
		next[slow]++
		return clampToSpec(next, stages)
	}
	// Budget exhausted: move one worker from the fastest PAR stage.
	fast, bestC := -1, -1.0
	for i, st := range stages {
		if st.Type != core.PAR || cur[i] <= 1 || i == slow {
			continue
		}
		if weights[i] <= 0 {
			continue
		}
		c := float64(cur[i]) / weights[i]
		if c > bestC {
			fast, bestC = i, c
		}
	}
	if fast < 0 {
		return nil
	}
	next[fast]--
	next[slow]++
	return clampToSpec(next, stages)
}

// bottleneck returns the index of the PAR-growable stage with the lowest
// capacity, or -1.
func bottleneck(stages []core.StageReport, extents []int, weights []float64) int {
	best, bestC := -1, 0.0
	for i, st := range stages {
		if st.Type != core.PAR || weights[i] <= 0 {
			continue
		}
		c := float64(extents[i]) / weights[i]
		if best < 0 || c < bestC {
			best, bestC = i, c
		}
	}
	return best
}

// pipelineRate estimates pipeline throughput as the minimum stage capacity.
func pipelineRate(stages []core.StageReport) float64 {
	minC := -1.0
	for _, st := range stages {
		t := st.ExecTime
		if t <= 0 {
			t = st.MeanExecTime
		}
		if t <= 0 {
			continue
		}
		c := float64(st.Extent) / t
		if minC < 0 || c < minC {
			minC = c
		}
	}
	if minC < 0 {
		return 0
	}
	return minC
}

// currentExtents reads the active extent vector from a nest report.
func currentExtents(nest *core.NestReport) []int {
	out := make([]int, len(nest.Stages))
	for i := range nest.Stages {
		out[i] = nest.Stages[i].Extent
	}
	return out
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}
