package mechanism

import (
	"dope/internal/core"
)

// TBF is the Throughput Balance with Fusion mechanism (§7.2) for the goal
// "maximize throughput with N threads". It records a moving average of each
// task's throughput (the monitor's smoothed execution time is its inverse)
// and assigns each task a DoP extent inversely proportional to that
// throughput — i.e. proportional to its execution time — so slow stages get
// more workers.
//
// If the imbalance across stage capacities remains above FusionThreshold
// even under the balanced assignment, the pipeline is too skewed for
// pipeline parallelism to pay off, and TBF switches the nest to its fused
// alternative (the developer-registered fused task, chosen through the
// TaskDescriptor's choice of ParDescriptors).
type TBF struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Path selects the nest to balance ("app" or "app/video"); empty means
	// the root nest.
	Path string
	// FusionThreshold is the capacity imbalance beyond which the fused
	// alternative is selected; the paper sets 0.5. Zero defaults to 0.5.
	FusionThreshold float64
	// DisableFusion turns TBF into the paper's DoPE-TB baseline.
	DisableFusion bool
}

// Name implements core.Mechanism.
func (m *TBF) Name() string {
	if m.DisableFusion {
		return "TB"
	}
	return "TBF"
}

// Reconfigure implements core.Mechanism.
func (m *TBF) Reconfigure(r *core.Report) *core.Config {
	nest := nestAt(r, m.Path)
	if nest == nil || !warm(nest, minSamples) {
		return nil
	}
	threads := budget(m.Threads, r)
	weights := execWeights(nest.Stages)
	extents := distribute(threads, nest.Stages, weights)

	if !m.DisableFusion && len(nest.Spec.Alts) > 1 {
		if m.imbalance(nest.Stages, extents, weights) > m.threshold() {
			fused := seqAltIndex(nest.Spec)
			if fused != nest.AltIndex {
				fstages := stageReportsFor(nest.Spec.Alts[fused])
				return install(r, nest, fused, distribute(threads, fstages, nil))
			}
		}
	}
	// Damping: measured execution times feed back through the assignment
	// (wider stages report more coordination overhead), so proposals can
	// flap by one worker between adjacent balances. Suspending the
	// top-level tasks for a ±1 shuffle costs more than it buys; only act
	// on a materially different assignment.
	if maxAbsDiff(extents, currentExtents(nest)) < 2 {
		return nil
	}
	return install(r, nest, nest.AltIndex, extents)
}

// maxAbsDiff returns the largest per-index absolute difference; length
// mismatches count as a material change.
func maxAbsDiff(a, b []int) int {
	if len(a) != len(b) {
		return 1 << 30
	}
	m := 0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func (m *TBF) threshold() float64 {
	if m.FusionThreshold > 0 {
		return m.FusionThreshold
	}
	return 0.5
}

// imbalance measures how uneven the per-stage capacities remain after the
// proposed assignment: 1 - min(capacity)/max(capacity), where capacity is
// extent/execTime. A perfectly balanced pipeline scores 0; a pipeline whose
// slowest stage cannot be helped (e.g. a SEQ bottleneck) scores near 1.
func (m *TBF) imbalance(stages []core.StageReport, extents []int, weights []float64) float64 {
	minC, maxC := -1.0, -1.0
	for i := range stages {
		t := weights[i]
		if t <= 0 {
			continue
		}
		c := float64(extents[i]) / t
		if minC < 0 || c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC <= 0 {
		return 0
	}
	return 1 - minC/maxC
}
