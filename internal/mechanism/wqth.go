package mechanism

import (
	"dope/internal/core"
)

// WQTH is the Work Queue Threshold with Hysteresis mechanism (§7.1) for the
// goal "minimize response time with N threads". It is a two-state machine:
//
//   - SEQ state (throughput mode): inner loops run sequentially and the
//     outer loop gets all N threads — the configuration that maximizes
//     throughput under heavy load.
//   - PAR state (latency mode): inner loops run with extent Mmax (the
//     largest extent whose parallel efficiency is still acceptable) and the
//     outer loop gets N/Mmax threads — the configuration that minimizes
//     per-transaction execution time under light load.
//
// It transitions SEQ→PAR after the work-queue occupancy has stayed below
// Threshold for NOff consecutive observations, and PAR→SEQ after the
// occupancy has stayed at or above Threshold for NOn consecutive
// observations. The hysteresis infers a load pattern and avoids toggling.
//
// Note the paper's naming: the machine starts in SEQ; NOff gates leaving it
// (turning inner parallelism on requires a consistently light queue) and
// NOn gates returning (turning it off requires a consistently heavy queue).
type WQTH struct {
	// Threads is the hardware-thread budget N.
	Threads int
	// Mmax is the inner-loop extent above which parallel efficiency drops
	// below 0.5 (per the paper's definition).
	Mmax int
	// Threshold is the work-queue occupancy threshold T, back-calculated
	// by the administrator from the acceptable response-time degradation.
	Threshold float64
	// NOff and NOn are the hysteresis lengths (consecutive observations).
	// Zero values default to 3.
	NOff, NOn int

	inPar      bool
	below      int
	atOrAbove  int
	haveTarget bool
}

// Name implements core.Mechanism.
func (m *WQTH) Name() string { return "WQT-H" }

// Reconfigure implements core.Mechanism.
func (m *WQTH) Reconfigure(r *core.Report) *core.Config {
	outerIdx, inner, ok := serverShape(r)
	if !ok {
		return nil
	}
	nOff, nOn := m.NOff, m.NOn
	if nOff <= 0 {
		nOff = 3
	}
	if nOn <= 0 {
		nOn = 3
	}
	occupancy := r.Root.Stages[outerIdx].Load

	if occupancy < m.Threshold {
		m.below++
		m.atOrAbove = 0
	} else {
		m.atOrAbove++
		m.below = 0
	}
	prev := m.inPar
	if !m.inPar && m.below > nOff {
		m.inPar = true
	} else if m.inPar && m.atOrAbove > nOn {
		m.inPar = false
	}
	if m.inPar == prev && m.haveTarget {
		return nil // no state change: keep the configuration
	}
	m.haveTarget = true
	threads := budget(m.Threads, r)
	if !m.inPar {
		// Throughput mode: outer gets everything, inner sequential.
		return serverConfig(r, outerIdx, inner, threads, 1, false)
	}
	// Latency mode: inner gets Mmax, outer gets N/Mmax.
	mmax := m.Mmax
	if mmax <= 0 {
		mmax = threads
	}
	return serverConfig(r, outerIdx, inner, threads, mmax, true)
}
