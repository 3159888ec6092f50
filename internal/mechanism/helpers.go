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
//   - LoadProportional — the Figure 12 policy: the thread budget split
//     across stages in proportion to their queue occupancy.
//   - EDP — the administrator-invented goal of §4, "minimize the
//     energy-delay product": hill climbing on throughput²/power.
//   - Gradient — single-context moves scored by the what-if profiler's
//     queueing model.
//
// The plumbing every mechanism shares — resolving the tuned nest, gating on
// samples, defaulting the thread budget, installing a decision into the
// configuration tree, the climb and shrink steps — lives in this file, once;
// the mechanism files hold only their policies.
package mechanism

import (
	"dope/internal/core"
)

const (
	// minSamples is how many iterations every stage of a nest must have run
	// before a mechanism acts on its measurements: acting on noise
	// destabilizes the pipeline.
	minSamples = 8
	// noise is the relative change of a measured objective (throughput,
	// energy-delay) that hill-climbing controllers treat as noise.
	noise = 0.02
)

// nestAt resolves a mechanism's Path to the nest it tunes; an empty path
// means the root nest. It returns nil when the path names no nest.
func nestAt(r *core.Report, path string) *core.NestReport {
	if path == "" {
		return r.Root
	}
	return r.Nest(path)
}

// warm reports whether every stage of nest has run at least n iterations.
func warm(nest *core.NestReport, n uint64) bool {
	for _, st := range nest.Stages {
		if st.Iterations < n {
			return false
		}
	}
	return true
}

// budget returns a mechanism's thread budget: threads when set, else the
// executive's context count.
func budget(threads int, r *core.Report) int {
	if threads > 0 {
		return threads
	}
	return r.Contexts
}

// settle returns how many control ticks to wait after a change before
// judging it: ticks when set, else 3.
func settle(ticks int) int {
	if ticks > 0 {
		return ticks
	}
	return 3
}

// install writes a decision for nest into the report's configuration copy,
// materializing the path down to nest, and returns the whole configuration.
func install(r *core.Report, nest *core.NestReport, alt int, extents []int) *core.Config {
	target := childConfigAt(r.Config, r.Root, nest)
	target.Alt = alt
	target.Extents = extents
	return r.Config
}

// childConfigAt walks the config tree along the report path from root to
// nest, materializing nodes as needed, and returns the config node for
// nest.
func childConfigAt(cfg *core.Config, root, nest *core.NestReport) *core.Config {
	// Paths are slash-joined with the root name first.
	if len(nest.Path) <= len(root.Path) {
		return cfg
	}
	rel := nest.Path[len(root.Path)+1:]
	cur := cfg
	for {
		i := 0
		for i < len(rel) && rel[i] != '/' {
			i++
		}
		name := rel[:i]
		next := cur.Child(name)
		if next == nil {
			next = &core.Config{}
			cur.SetChild(name, next)
		}
		cur = next
		if i == len(rel) {
			return cur
		}
		rel = rel[i+1:]
	}
}

// climb proposes FDP's next hill-climbing move, or nil when none exists:
// one more worker for the bottleneck stage (the PAR stage with the lowest
// extent/execTime) while the budget allows, else one worker moved to it
// from the most over-provisioned PAR stage.
func climb(stages []core.StageReport, cur []int, threads int) []int {
	weights := execWeights(stages)
	slow := bottleneck(stages, cur, weights)
	if slow < 0 {
		return nil
	}
	next := append([]int(nil), cur...)
	if stages[slow].MaxDoP > 0 && cur[slow] >= stages[slow].MaxDoP {
		return nil
	}
	if sumExtents(cur) < threads {
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

// shrink removes one worker from the most over-provisioned PAR stage, or
// returns nil when every PAR stage is at one worker.
func shrink(stages []core.StageReport, cur []int) []int {
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

// serverConfig builds the canonical server configuration: the outer stage
// gets threads/extent workers (at least one), every other root stage one;
// the inner nest runs its most parallel alternative over extent workers
// when par is set, else its most sequential alternative at extent 1.
func serverConfig(r *core.Report, outerIdx int, inner *core.NestReport, threads, extent int, par bool) *core.Config {
	cfg := r.Config
	innerCfg := cfg.Child(inner.Name)
	if innerCfg == nil {
		innerCfg = &core.Config{}
		cfg.SetChild(inner.Name, innerCfg)
	}
	cfg.Alt = 0
	cfg.Extents = make([]int, len(r.Root.Stages))
	for i := range cfg.Extents {
		cfg.Extents[i] = 1
	}
	cfg.Extents[outerIdx] = max(1, threads/extent)
	if !par {
		seq := seqAltIndex(inner.Spec)
		innerCfg.Alt = seq
		innerCfg.Extents = distribute(1, stageReportsFor(inner.Spec.Alts[seq]), nil)
		return cfg
	}
	alt := parAltIndex(inner.Spec)
	innerCfg.Alt = alt
	stages := inner.Stages
	if inner.AltIndex != alt {
		stages = stageReportsFor(inner.Spec.Alts[alt])
	}
	innerCfg.Extents = distribute(extent, stages, execWeights(stages))
	return cfg
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

// relDiff returns |a-b|/|b|, with 1 for any change from zero.
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
