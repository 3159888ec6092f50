// Package power simulates the power-measurement substrate of the paper's
// testbed: a full-system power model driven by how many hardware contexts
// are active, observed through a power distribution unit (PDU) with a
// limited sampling rate.
//
// The paper measured full-system power with an APC AP7892 PDU at its maximum
// rate of 13 samples per minute, and notes that "90% of peak total power
// corresponds to 60% of peak power in the dynamic CPU range (all cores idle
// to all cores active)". Model reproduces both facts:
//
//   - Power(busy) = Idle + (Peak-Idle) * busy/nContexts  (linear CPU range)
//   - With default calibration, Idle = 0.75*Peak so that the 90%-of-peak
//     target sits at 60% of the dynamic range, matching §8.2.3.
//   - The PDU wrapper only refreshes its reading every SamplePeriod; between
//     samples callers see the stale value, which is precisely the controller
//     lag the paper discusses.
package power

import (
	"math"
	"sync"
	"time"

	"dope/internal/platform"
)

// Model converts context occupancy into full-system watts. Safe for
// concurrent use (it is stateless after construction).
type Model struct {
	idleW    float64
	peakW    float64
	contexts int
}

// DefaultPeakWatts matches the evaluation platform's scale: the paper's
// power plot (Figure 14) tops out near 800 W for the 24-core machine.
const DefaultPeakWatts = 800.0

// NewModel returns a power model for a machine with n contexts, idle draw
// idleW and all-cores-active draw peakW. It panics on non-physical
// parameters (peak below idle, or n < 1): these are construction-time
// programming errors.
func NewModel(n int, idleW, peakW float64) *Model {
	if n < 1 {
		panic("power: need at least one context")
	}
	if peakW < idleW || idleW < 0 {
		panic("power: peak watts must be >= idle watts >= 0")
	}
	return &Model{idleW: idleW, peakW: peakW, contexts: n}
}

// NewDefaultModel returns the calibration used throughout the experiments:
// idle = 75% of peak, so 90% of peak power equals 60% of the dynamic range,
// as reported in §8.2.3 of the paper.
func NewDefaultModel(n int) *Model {
	return NewModel(n, 0.75*DefaultPeakWatts, DefaultPeakWatts)
}

// Watts returns the instantaneous system draw with busy active contexts.
// busy is clamped to [0, n].
func (m *Model) Watts(busy int) float64 {
	if busy < 0 {
		busy = 0
	}
	if busy > m.contexts {
		busy = m.contexts
	}
	return m.idleW + (m.peakW-m.idleW)*float64(busy)/float64(m.contexts)
}

// Idle returns the all-idle draw in watts.
func (m *Model) Idle() float64 { return m.idleW }

// Peak returns the all-active draw in watts.
func (m *Model) Peak() float64 { return m.peakW }

// Contexts returns the number of contexts the model was built for.
func (m *Model) Contexts() int { return m.contexts }

// BudgetToContexts returns the largest number of busy contexts whose draw
// does not exceed budget watts. Returns 0 when even idle exceeds the budget.
func (m *Model) BudgetToContexts(budget float64) int {
	if budget < m.idleW {
		return 0
	}
	frac := (budget - m.idleW) / (m.peakW - m.idleW)
	n := int(math.Floor(frac*float64(m.contexts) + 1e-9))
	if n > m.contexts {
		n = m.contexts
	}
	return n
}

// PDU wraps a power source with the sampling-rate limit of a real power
// distribution unit. Reads between samples return the last sampled value.
// Safe for concurrent use.
type PDU struct {
	source func() float64
	period time.Duration
	clock  platform.Clock

	mu       sync.Mutex
	last     float64
	lastAt   time.Time
	hasRead  bool
	nSamples uint64
}

// DefaultSamplePeriod is the paper's AP7892 limit: 13 samples per minute.
const DefaultSamplePeriod = time.Minute / 13

// NewPDU returns a PDU that samples source at most once per period using
// clock for time. A period of 0 or less disables rate limiting.
func NewPDU(source func() float64, period time.Duration, clock platform.Clock) *PDU {
	if clock == nil {
		clock = platform.WallClock{}
	}
	return &PDU{source: source, period: period, clock: clock}
}

// Read returns the PDU's current reading, refreshing from the source only if
// the sampling period has elapsed since the previous refresh.
func (p *PDU) Read() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	if !p.hasRead || p.period <= 0 || now.Sub(p.lastAt) >= p.period {
		p.last = p.source()
		p.lastAt = now
		p.hasRead = true
		p.nSamples++
	}
	return p.last
}

// Samples returns how many times the underlying source was actually sampled.
func (p *PDU) Samples() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nSamples
}

// FeatureCB adapts the PDU into a platform feature callback suitable for
// Features.Register(platform.FeatureSystemPower, ...).
func (p *PDU) FeatureCB() platform.FeatureCB {
	return func() float64 { return p.Read() }
}
