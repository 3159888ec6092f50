package mechanism

import (
	"math"

	"dope/internal/core"
)

// WQLinear is the Work Queue Linear mechanism (§7.1): instead of toggling
// between two states like WQTH, it degrades the inner-loop DoP extent
// continuously with the instantaneous work-queue occupancy WQo:
//
//	DoP_extent = max(Mmin, Mmax - k × WQo)      (Equation 2)
//	k          = (Mmax - Mmin) / Qmax            (Equation 3)
//
// Qmax is derived from the maximum response-time degradation acceptable to
// the end user (the administrator's SLA knob). The outer loop receives
// Threads / DoP_extent workers so the machine stays fully subscribed.
type WQLinear struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Mmax and Mmin bound the inner extent; Mmin defaults to 1.
	Mmax int
	Mmin int
	// Qmax is the queue occupancy at which the extent reaches Mmin.
	Qmax float64
}

// Name implements core.Mechanism.
func (m *WQLinear) Name() string { return "WQ-Linear" }

// Extent returns Equation 2's inner DoP extent for a given occupancy;
// exported for the ablation benchmarks.
func (m *WQLinear) Extent(occupancy float64) int {
	mmin := m.Mmin
	if mmin < 1 {
		mmin = 1
	}
	mmax := m.Mmax
	if mmax < mmin {
		mmax = mmin
	}
	qmax := m.Qmax
	if qmax <= 0 {
		qmax = 1
	}
	k := float64(mmax-mmin) / qmax
	e := int(math.Round(float64(mmax) - k*occupancy))
	if e < mmin {
		e = mmin
	}
	if e > mmax {
		e = mmax
	}
	return e
}

// Reconfigure implements core.Mechanism.
func (m *WQLinear) Reconfigure(r *core.Report) *core.Config {
	outerIdx, inner, ok := serverShape(r)
	if !ok {
		return nil
	}
	extent := m.Extent(r.Root.Stages[outerIdx].Load)
	return serverConfig(r, outerIdx, inner, budget(m.Threads, r), extent, extent > 1)
}
