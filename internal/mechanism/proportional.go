package mechanism

import (
	"dope/internal/core"
)

// Proportional is the example mechanism of the paper's Figure 10: it
// assigns each task a DoP extent proportional to the task's (normalized)
// execution time, recursing into nested loops with the share of the budget
// given to the delegating task. Tasks that take longer to execute get more
// resources.
type Proportional struct {
	// Threads is the hardware-thread budget (the administrator's N).
	Threads int
}

// Name implements core.Mechanism.
func (p *Proportional) Name() string { return "proportional" }

// Reconfigure implements core.Mechanism.
func (p *Proportional) Reconfigure(r *core.Report) *core.Config {
	if r.Root == nil {
		return nil
	}
	cfg := r.Config
	p.assign(r.Root, cfg, budget(p.Threads, r))
	return cfg
}

// assign implements the recursive step of Figure 10: compute total
// execution time, give each task a share of the budget proportional to its
// time, and recurse into nested loops with the task's share.
func (p *Proportional) assign(nr *core.NestReport, cfg *core.Config, budget int) {
	if budget < 1 {
		budget = 1
	}
	weights := execWeights(nr.Stages)
	extents := distribute(budget, nr.Stages, weights)
	cfg.Alt = nr.AltIndex
	cfg.Extents = extents
	for i, st := range nr.Stages {
		if !st.HasNest {
			continue
		}
		// The delegating stage's workers each drive a private nested
		// instance, so the nested loop receives the per-worker share.
		share := budget / max(1, sumExtents(extents)) * extents[i]
		perWorker := share / max(1, extents[i])
		for name, child := range nr.Children {
			ccfg := cfg.Child(name)
			if ccfg == nil {
				ccfg = &core.Config{}
				cfg.SetChild(name, ccfg)
			}
			p.assign(child, ccfg, perWorker)
		}
	}
}
