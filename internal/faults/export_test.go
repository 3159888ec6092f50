package faults

import "time"

// WithDelay sets the stall duration for Delay faults (default 1ms).
func WithDelay(d time.Duration) Option { return func(in *Injector) { in.delay = d } }

// Calls returns how many wrapped functor calls have been observed.
func (in *Injector) Calls() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, c := range in.counters {
		n += c.calls.Load()
	}
	return n
}
