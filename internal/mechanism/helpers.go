// Package mechanism implements the parallelism-adaptation mechanisms of the
// paper's §7, each as a core.Mechanism the executive (or the discrete-event
// simulator) consults on every control tick:
//
//   - Proportional — Figure 10's example mechanism: DoP proportional to
//     task execution time, recursing into nested loops.
//   - WQTH — Work Queue Threshold with Hysteresis (§7.1), a two-state
//     latency-mode/throughput-mode machine for "min response time".
//   - WQLinear — Work Queue Linear (§7.1), continuous DoP degradation with
//     queue occupancy (Equation 2).
//   - TB / TBF — Throughput Balance (with Fusion) (§7.2) for
//     "max throughput": DoP inversely proportional to task throughput, with
//     task fusion when stage imbalance exceeds a threshold.
//   - FDP — Feedback-Directed Pipelining (Suleman et al.), hill climbing on
//     measured throughput.
//   - SEDA — the Staged Event-Driven Architecture controller (Welsh et
//     al.): each stage resizes its pool from local load, uncoordinated.
//   - TPC — Throughput under a Power budget (§7.3): closed-loop controller
//     that ramps DoP until the watt budget binds, then explores
//     configurations of equal extent and settles on the best.
package mechanism

import (
	"dope/internal/core"
)

// distribute splits a thread budget over the stages of one alternative:
// every stage gets at least one worker, SEQ stages get exactly one, and the
// remaining budget is shared among PAR stages proportionally to the given
// weights (largest-remainder rounding), respecting MaxDoP. A nil or
// all-zero weights slice means equal weights.
func distribute(budget int, stages []core.StageReport, weights []float64) []int {
	n := len(stages)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	parIdx := make([]int, 0, n)
	for i, st := range stages {
		out[i] = 1
		if st.Type == core.PAR {
			parIdx = append(parIdx, i)
		}
	}
	remaining := budget - n
	if remaining <= 0 || len(parIdx) == 0 {
		return clampToSpec(out, stages)
	}
	w := make([]float64, len(parIdx))
	var sum float64
	for j, i := range parIdx {
		var v float64
		if weights != nil && i < len(weights) {
			v = weights[i]
		}
		if v <= 0 {
			v = 0
		}
		w[j] = v
		sum += v
	}
	if sum <= 0 {
		for j := range w {
			w[j] = 1
		}
		sum = float64(len(w))
	}
	// Largest-remainder apportionment of `remaining` extra workers.
	shares := make([]float64, len(parIdx))
	floors := make([]int, len(parIdx))
	used := 0
	for j := range parIdx {
		shares[j] = float64(remaining) * w[j] / sum
		floors[j] = int(shares[j])
		used += floors[j]
	}
	for used < remaining {
		best, bestFrac := -1, -1.0
		for j := range parIdx {
			frac := shares[j] - float64(floors[j])
			if frac > bestFrac {
				best, bestFrac = j, frac
			}
		}
		floors[best]++
		shares[best] = float64(floors[best]) // consume its remainder
		used++
	}
	for j, i := range parIdx {
		out[i] += floors[j]
	}
	return clampToSpec(out, stages)
}

// clampToSpec applies stage type and MaxDoP bounds to an extent vector.
func clampToSpec(extents []int, stages []core.StageReport) []int {
	for i, st := range stages {
		if st.Type == core.SEQ {
			extents[i] = 1
			continue
		}
		if extents[i] < 1 {
			extents[i] = 1
		}
		if st.MaxDoP > 0 && extents[i] > st.MaxDoP {
			extents[i] = st.MaxDoP
		}
	}
	return extents
}

// stageSet remembers which alternative, with how many stages, a mechanism's
// per-stage memory (extent vectors, stage indices, histories keyed by extent
// signature) was learned on. An administrator's SetConfig or another
// mechanism can switch the alternative under a live mechanism; memory
// learned on the old stage set then indexes stages that no longer exist.
type stageSet struct{ alt, stages int }

// changed reports whether nest runs a different stage set than at the
// previous call, and remembers the current one. The first call reports
// true; resetting memory that is still empty costs nothing.
func (s *stageSet) changed(nest *core.NestReport) bool {
	now := stageSet{alt: nest.AltIndex, stages: len(nest.Stages)}
	if *s == now {
		return false
	}
	*s = now
	return true
}

// execWeights extracts per-stage execution-time weights from a nest report,
// preferring the smoothed estimate and falling back to the lifetime mean.
func execWeights(stages []core.StageReport) []float64 {
	w := make([]float64, len(stages))
	for i, st := range stages {
		w[i] = st.ExecTime
		if w[i] <= 0 {
			w[i] = st.MeanExecTime
		}
	}
	return w
}

// seqAltIndex returns the index of the "most sequential" alternative of a
// nest: the one with the fewest stages (ties to the lower index). For the
// canonical pipeline/fused pair this is the fused alternative.
func seqAltIndex(spec *core.NestSpec) int {
	best, bestN := 0, len(spec.Alts[0].Stages)
	for i, alt := range spec.Alts[1:] {
		if len(alt.Stages) < bestN {
			best, bestN = i+1, len(alt.Stages)
		}
	}
	return best
}

// parAltIndex returns the index of the "most parallel" alternative: the one
// with the most stages (ties to the lower index).
func parAltIndex(spec *core.NestSpec) int {
	best, bestN := 0, len(spec.Alts[0].Stages)
	for i, alt := range spec.Alts[1:] {
		if len(alt.Stages) > bestN {
			best, bestN = i+1, len(alt.Stages)
		}
	}
	return best
}

// serverShape locates the canonical server structure in a report: the first
// root stage that delegates to a nested loop, together with the nested
// nest's report. ok is false when the application has no nested loop.
func serverShape(r *core.Report) (outerStage int, inner *core.NestReport, ok bool) {
	if r.Root == nil {
		return 0, nil, false
	}
	for i := range r.Root.Stages {
		if r.Root.Stages[i].HasNest {
			for _, child := range r.Root.Children {
				return i, child, true
			}
		}
	}
	return 0, nil, false
}

// stageReportsFor synthesizes StageReports for an alternative that is not
// currently active (so the monitor has no data keyed to it yet), carrying
// the static spec fields mechanisms need for distribution.
func stageReportsFor(alt *core.AltSpec) []core.StageReport {
	out := make([]core.StageReport, len(alt.Stages))
	for i := range alt.Stages {
		st := &alt.Stages[i]
		out[i] = core.StageReport{
			Name:    st.Name,
			Type:    st.Type,
			MinDoP:  st.MinDoP,
			MaxDoP:  st.MaxDoP,
			HasNest: st.Nest != nil,
		}
	}
	return out
}

// sumExtents returns the total of an extent vector.
func sumExtents(e []int) int {
	s := 0
	for _, v := range e {
		s += v
	}
	return s
}
