package core

import (
	"time"

	"dope/internal/monitor"
)

// Exec-time sampling. Reading the clock is the largest single cost of an
// uncontended Begin/End pair, so a slot does not time every section while
// its sections are short. After each timed section the slot's sampler
// draws how many sections to leave untimed before the next timed one:
//
//   - none when the section took at least longSectionNanos: two clock reads
//     are then at most a few percent of it, so slow stages are timed on
//     every section and stay exact;
//   - none during a warm-up of the slot's first samplerWarmup timed
//     sections;
//   - otherwise a count uniform in [0, 2k-2], one section in k timed on
//     average. The monitor pools every slot's timed sections into one
//     per-tick estimate, and (CV/samplingErr)² of them give it a relative
//     standard error of samplingErr, CV being the coefficient of variation
//     of section lengths. k is the largest count that leaves each of the
//     stage's slots its share of those per control tick, capped at
//     maxSampleEvery. With samplingErr at 1 %, the tick's estimate lands
//     within 2 % of the fully timed value at two standard errors.
//
// The draw depends only on sections already closed, never on the one it
// skips, and the monitor weights each timed section by the sections it
// stands for (monitor.SlotRecorder), so the estimate is unbiased; the jitter
// keeps a workload whose section lengths alternate from aliasing with k.
const (
	longSectionNanos = 4_000
	samplingErr      = 0.01
	maxSampleEvery   = 64
	samplerWarmup    = 16
)

// sampler is one slot's timing decision state, owned by its worker.
type sampler struct {
	skip    uint32  // untimed sections still to go before the next timed one
	rng     uint32  // xorshift32 state for the draws
	warm    uint32  // timed sections seen, up to samplerWarmup
	count   int64   // sections closed since from
	from    int64   // start of the current counting period; monitor.NoStamp before it
	perTick float64 // sections the slot closed per control tick, last period
	mean    float64 // EWMA of timed section lengths, ns
	sq      float64 // EWMA of their squares
}

// newSampler returns the sampler of a slot; slots start their draws at
// different points of the generator.
func newSampler(slot int) sampler {
	return sampler{rng: uint32(slot+1) * 0x9e3779b9, from: monitor.NoStamp}
}

// untimedEnd records a section closed without a clock read.
func (s *sampler) untimedEnd() {
	s.skip--
	s.count++
}

// timedEnd records a timed section of dur nanoseconds closing at now and
// draws the next skip; tick is the executive's control interval and slots
// the number of slots whose timed sections the stage's estimate pools.
func (s *sampler) timedEnd(dur, now int64, tick time.Duration, slots int) {
	s.skip = 0
	s.count++
	// Sections per tick is measured over whole periods of at least a tick,
	// idle time included, so a stage that works in bursts is not taken
	// for one that works all the time.
	if s.from == monitor.NoStamp || now < s.from {
		s.from, s.count = now, 0
	} else if el := now - s.from; el >= int64(tick) {
		s.perTick = float64(s.count) * float64(tick) / float64(el)
		s.from, s.count = now, 0
	}
	if dur >= longSectionNanos {
		return
	}
	// The moments average over about 32 timed sections; fewer let one run
	// of similar sections talk k up.
	const w = 1.0 / 32
	d := float64(dur)
	if s.warm == 0 {
		s.mean, s.sq = d, d*d
	} else {
		s.mean += w * (d - s.mean)
		s.sq += w * (d*d - s.sq)
	}
	if s.warm < samplerWarmup {
		s.warm++
		return
	}
	if s.mean <= 0 || s.perTick <= 0 {
		return
	}
	// This slot's share of the timed sections a tick needs.
	need := (s.sq - s.mean*s.mean) / (s.mean * s.mean) / (samplingErr * samplingErr) / float64(max(slots, 1))
	k := float64(maxSampleEvery)
	if need > 0 {
		k = min(k, s.perTick/need)
	}
	if k < 2 {
		return
	}
	x := s.rng
	if x == 0 { // a zero sampler (a hand-built Worker) starts from a fixed seed
		x = 0x9e3779b9
	}
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	s.rng = x
	s.skip = x % (2*uint32(k) - 1)
}
