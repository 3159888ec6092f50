package mechanism

import (
	"dope/internal/core"
)

// SEDA reimplements the Staged Event-Driven Architecture thread-pool
// controller (Welsh, Culler, Brewer; SOSP 2001) as a DoPE mechanism, the
// second prior-work mechanism of §7.2. Each stage resizes its own pool from
// its local input-queue occupancy — adding a worker when the queue exceeds
// the high-water mark, removing one when it falls below the low-water mark
// — with no global coordination of the thread budget across stages. That
// lack of a global view is exactly the weakness the paper's evaluation
// exposes (Figure 15): SEDA oversubscribes some stages while starving
// others.
type SEDA struct {
	// Path selects the nest to control; empty means the root nest.
	Path string
	// HighWater adds a worker when a stage's load exceeds it (default 4).
	HighWater float64
	// LowWater removes a worker when a stage's load falls below it
	// (default 1).
	LowWater float64
	// PerStageCap bounds each stage's pool (default: the machine size).
	PerStageCap int
}

// Name implements core.Mechanism.
func (m *SEDA) Name() string { return "SEDA" }

// Reconfigure implements core.Mechanism.
func (m *SEDA) Reconfigure(r *core.Report) *core.Config {
	nest := nestAt(r, m.Path)
	if nest == nil {
		return nil
	}
	high := m.HighWater
	if high <= 0 {
		high = 4
	}
	low := m.LowWater
	if low <= 0 {
		low = 1
	}
	poolCap := budget(m.PerStageCap, r)
	cur := currentExtents(nest)
	changed := false
	for i, st := range nest.Stages {
		if st.Type != core.PAR {
			continue
		}
		switch {
		case st.Load > high && cur[i] < poolCap:
			cur[i]++
			changed = true
		case st.Load < low && cur[i] > 1:
			cur[i]--
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return install(r, nest, nest.AltIndex, clampToSpec(cur, nest.Stages))
}
