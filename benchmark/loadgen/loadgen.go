// Package loadgen is the benchmark's open-loop load generator: a seeded
// arrival schedule merged from any number of sources, and the single
// goroutine that plays it against the system on the wall clock regardless
// of how fast the system answers.
package loadgen

import (
	"math/rand"
	"sort"
	"time"
)

// Source is one stream of arrivals. Its arrivals form a Poisson process of
// the given rate conditioned on its count: exactly round(Rate × active
// time) arrivals, placed uniformly at random over the active time, so two
// seeds offer the same load and differ only in where the arrivals fall.
// With PeriodS > 0 the source is active only during [PhaseS, PhaseS+OnS) of
// every period (a bursty client); otherwise it is always active.
type Source struct {
	Rate    float64 `json:"rate_per_s"`
	OnS     float64 `json:"on_s"`
	PeriodS float64 `json:"period_s"`
	PhaseS  float64 `json:"phase_s"`
}

// Arrival is one scheduled request: when it is due, as an offset from the
// start of the schedule, and which source sent it.
type Arrival struct {
	At  time.Duration
	Src int
}

// Schedule builds the merged arrival schedule of srcs over dur. The same
// seed, duration and sources give the same schedule.
func Schedule(seed int64, dur time.Duration, srcs []Source) []Arrival {
	var out []Arrival
	for i, s := range srcs {
		// Each source draws from its own stream, so adding a source does
		// not move the others' arrivals.
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 1))
		total := dur.Seconds()
		active := total
		bursty := s.PeriodS > 0 && s.OnS > 0 && s.OnS < s.PeriodS
		if bursty {
			active = 0
			for start := s.PhaseS; start < total; start += s.PeriodS {
				active += min(s.OnS, total-start)
			}
		}
		n := int(s.Rate*active + 0.5)
		for k := 0; k < n; k++ {
			u := rng.Float64() * active
			at := u
			if bursty {
				cycle := int(u / s.OnS)
				at = s.PhaseS + float64(cycle)*s.PeriodS + (u - float64(cycle)*s.OnS)
			}
			out = append(out, Arrival{At: time.Duration(at * float64(time.Second)), Src: i})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Play sends the schedule against the wall clock: on every wake it sends
// each arrival that is now due, then sleeps until the next one. send
// receives the arrival's index, the arrival, and the instant it was due.
// Play returns, per arrival, how late the generator sent it. It never
// waits for the system under test: if the system falls behind, its queue
// grows.
func Play(start time.Time, sched []Arrival, send func(i int, a Arrival, due time.Time)) (late []time.Duration) {
	late = make([]time.Duration, len(sched))
	for i := 0; i < len(sched); {
		now := time.Since(start)
		if wait := sched[i].At - now; wait > 0 {
			time.Sleep(wait)
			continue
		}
		for ; i < len(sched) && sched[i].At <= now; i++ {
			late[i] = now - sched[i].At
			send(i, sched[i], start.Add(sched[i].At))
		}
	}
	return late
}
