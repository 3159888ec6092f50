// Package workload generates the request streams used throughout the
// paper's evaluation: "the arrival of tasks was simulated using a task
// queuing thread that enqueues tasks to a work queue according to a Poisson
// distribution. The average arrival rate determines the load factor on the
// system. A load factor of 1.0 corresponds to an average arrival rate equal
// to the maximum throughput sustainable by the system" (§8.2).
//
// Streams are seeded so every experiment is reproducible.
package workload

import (
	"math"
	"math/rand"
	"time"
)

// Arrivals is a Poisson arrival process: successive inter-arrival gaps are
// exponentially distributed with the configured rate. Not safe for
// concurrent use; each generator owns one stream.
type Arrivals struct {
	rng  *rand.Rand
	rate float64 // arrivals per second
}

// NewArrivals returns a Poisson process with the given mean arrival rate
// (tasks/second), seeded deterministically. Rate must be positive; a
// non-positive rate panics because it yields an undefined process.
func NewArrivals(rate float64, seed int64) *Arrivals {
	if rate <= 0 {
		panic("workload: arrival rate must be positive")
	}
	return &Arrivals{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

// Rate returns the mean arrival rate in tasks per second.
func (a *Arrivals) Rate() float64 { return a.rate }

// Next returns the next exponentially distributed inter-arrival gap.
func (a *Arrivals) Next() time.Duration {
	u := a.rng.Float64()
	for u == 0 { // avoid log(0)
		u = a.rng.Float64()
	}
	gap := -math.Log(u) / a.rate
	return time.Duration(gap * float64(time.Second))
}

// LoadFactor describes an experiment operating point: the ratio of the mean
// arrival rate to the system's maximum sustainable throughput.
type LoadFactor float64

// RateFor converts the load factor into an arrival rate given the system's
// calibrated maximum throughput (tasks/second).
func (lf LoadFactor) RateFor(maxThroughput float64) float64 {
	return float64(lf) * maxThroughput
}

// CalibrationTasks is the number of tasks the paper uses to determine
// maximum throughput ("N was set to 500", §8.2).
const CalibrationTasks = 500

// MaxThroughput computes the paper's calibration: N tasks / T seconds where
// T is the time to execute the tasks in parallel but each task itself
// sequential. Runtime must be positive.
func MaxThroughput(nTasks int, runtime time.Duration) float64 {
	if runtime <= 0 {
		panic("workload: calibration runtime must be positive")
	}
	return float64(nTasks) / runtime.Seconds()
}

// Sizes generates per-task work sizes. The paper's service-type workloads
// have roughly homogeneous transactions (videos, queries, files); Jitter
// adds bounded multiplicative noise around the base size so parallel stages
// see realistic imbalance.
type Sizes struct {
	rng    *rand.Rand
	base   float64
	jitter float64 // fraction in [0,1): size in base*(1±jitter)
}

// NewSizes returns a size stream around base with the given jitter fraction
// (clamped to [0, 0.99]).
func NewSizes(base float64, jitter float64, seed int64) *Sizes {
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 0.99 {
		jitter = 0.99
	}
	return &Sizes{rng: rand.New(rand.NewSource(seed)), base: base, jitter: jitter}
}

// Next returns the next task size (always positive).
func (s *Sizes) Next() float64 {
	if s.jitter == 0 {
		return s.base
	}
	return s.base * (1 + s.jitter*(2*s.rng.Float64()-1))
}
