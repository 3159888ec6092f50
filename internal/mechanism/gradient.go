package mechanism

import (
	"dope/internal/core"
	"dope/internal/monitor"
)

// Gradient is a causal-profile-driven mechanism for pipeline applications:
// on each control tick it consults the what-if profiler's virtual-speedup
// model (monitor.WhatIf) and moves a single hardware context from the stage
// where it contributes least to the stage where the model predicts the
// largest throughput gain. It is the "act on the profile" counterpart of the
// -whatif report: where TASKPROF-style causal profiling tells a programmer
// which region to optimize, Gradient tells the executive which stage to
// grow, one context per decision, and verifies each prediction against the
// next tick's measurements simply by re-deriving the profile from them.
//
// Compared to TB/TBF (§7.2), which re-balance the whole extent vector from
// measured stage throughputs every tick, Gradient makes minimal moves scored
// by the closed queueing-network model, so it converges without the
// oscillation that whole-vector rebalancing shows when service-time
// estimates are noisy. It only manages flat pipelines: like TBF it returns
// nil for server-shaped applications (nested loops), which WQT-H and
// WQ-Linear own.
type Gradient struct {
	// Threads is the hardware-context budget; zero means the executive's
	// context count.
	Threads int

	seen stageSet
	gradientState
}

const (
	// gradientMinGain is the minimum relative model-predicted throughput
	// gain that justifies moving a context. Moves predicted below it are
	// noise; standing still is free.
	gradientMinGain = 0.01
	// gradientCooldown is how many control ticks to sit out after
	// installing a move, letting the smoothed estimates absorb it before
	// the next decision.
	gradientCooldown = 2
)

// gradientState holds stage indices, so it is per stage set (see stageSet).
type gradientState struct {
	cool     int
	lastFrom int // donor of the last move, for anti-ping-pong
	lastTo   int
	warm     bool
}

// Name implements core.Mechanism.
func (m *Gradient) Name() string { return "Gradient" }

// Reconfigure implements core.Mechanism.
func (m *Gradient) Reconfigure(r *core.Report) *core.Config {
	if _, _, ok := serverShape(r); ok {
		return nil // server-shaped: not this mechanism's problem
	}
	if r.Root == nil || len(r.Root.Stages) == 0 {
		return nil
	}
	if m.seen.changed(r.Root) {
		m.gradientState = gradientState{}
	}
	stages := r.Root.Stages
	threads := budget(m.Threads, r)
	extents := make([]int, len(stages))
	for i := range stages {
		extents[i] = stages[i].Extent
	}

	// Warm start: while the pipeline is under budget there is nothing to
	// trade off — hand out the spare contexts in proportion to measured
	// execution time (equal shares before any stage has been observed) and
	// let the profiler take over once every context is placed.
	if !m.warm {
		m.lastFrom, m.lastTo = -1, -1
		if sumExtents(extents) < threads {
			m.warm = true
			m.cool = gradientCooldown
			return m.apply(r, distribute(threads, stages, execWeights(stages)))
		}
		m.warm = true
	}

	if m.cool > 0 {
		m.cool--
		return nil
	}

	in := core.WhatIfInputs(stages, extents)
	base := monitor.WhatIfThroughput(in, extents)
	if base <= 0 {
		return nil // not enough observation to score moves yet
	}

	// Score every single-context move donor→recipient. SEQ stages and
	// stages at MinDoP-floor 1 cannot donate; SEQ stages and stages at
	// MaxDoP cannot receive.
	bestFrom, bestTo, bestX := -1, -1, base
	cand := make([]int, len(extents))
	for from := range stages {
		if stages[from].Type != core.PAR || extents[from] <= 1 {
			continue
		}
		for to := range stages {
			if to == from || stages[to].Type != core.PAR {
				continue
			}
			if stages[to].MaxDoP > 0 && extents[to] >= stages[to].MaxDoP {
				continue
			}
			copy(cand, extents)
			cand[from]--
			cand[to]++
			if x := monitor.WhatIfThroughput(in, cand); x > bestX {
				bestFrom, bestTo, bestX = from, to, x
			}
		}
	}
	if bestFrom < 0 {
		return nil
	}
	// A move must clear the gain threshold; reversing the previous move
	// must clear twice the threshold, so measurement jitter cannot walk a
	// context back and forth between two near-balanced stages.
	need := 1 + gradientMinGain
	if bestFrom == m.lastTo && bestTo == m.lastFrom {
		need = 1 + 2*gradientMinGain
	}
	if bestX < base*need {
		return nil
	}
	extents[bestFrom]--
	extents[bestTo]++
	m.lastFrom, m.lastTo = bestFrom, bestTo
	m.cool = gradientCooldown
	return m.apply(r, extents)
}

// apply writes the extent vector into the report's configuration copy.
func (m *Gradient) apply(r *core.Report, extents []int) *core.Config {
	cfg := r.Config
	if cfg == nil {
		cfg = &core.Config{}
	}
	cfg.Extents = clampToSpec(extents, r.Root.Stages)
	return cfg
}
