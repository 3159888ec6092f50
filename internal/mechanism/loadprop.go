package mechanism

import (
	"dope/internal/core"
)

// LoadProportional allocates the thread budget across a pipeline's stages
// proportionally to each task's current load (its in-queue occupancy),
// with every stage keeping at least one worker. This is the policy behind
// the paper's Figure 12 result: "DoPE achieves a much better [response
// time] characteristic by allocating threads proportional to load on each
// task." Unlike SEDA it respects a global budget.
type LoadProportional struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Path selects the nest to balance; empty means the root nest.
	Path string
}

// loadMinSamples is LoadProportional's sample gate, half of minSamples.
const loadMinSamples = 4

// Name implements core.Mechanism.
func (m *LoadProportional) Name() string { return "load-proportional" }

// Reconfigure implements core.Mechanism.
func (m *LoadProportional) Reconfigure(r *core.Report) *core.Config {
	nest := nestAt(r, m.Path)
	if nest == nil || !warm(nest, loadMinSamples) {
		return nil
	}
	// Additive smoothing: an instantaneously empty queue must not starve
	// its stage to a single worker (queue occupancies swing on the control
	// period), so every stage keeps a baseline share.
	weights := make([]float64, len(nest.Stages))
	for i, st := range nest.Stages {
		weights[i] = st.Load + 1
	}
	return install(r, nest, nest.AltIndex, distribute(budget(m.Threads, r), nest.Stages, weights))
}
