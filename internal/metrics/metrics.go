// Package metrics records the end-to-end measurements the paper reports:
// per-request response time (queue wait + execution, Equation 1), system
// throughput, and per-task execution time. Recorders are safe for
// concurrent use by many worker goroutines.
package metrics

import (
	"sync"
	"time"

	"dope/internal/stats"
)

// ResponseRecorder accumulates per-request response times, split into the
// two components of the paper's Equation 1:
//
//	T_response(t) = T_exec(DoP) + q(t)/Throughput(DoP)
//
// i.e. execution time plus time waiting in the work queue.
type ResponseRecorder struct {
	mu        sync.Mutex
	wait      stats.Welford
	exec      stats.Welford
	response  stats.Welford
	responses []float64
}

// Observe records one completed request.
func (r *ResponseRecorder) Observe(wait, exec time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := wait.Seconds()
	e := exec.Seconds()
	r.wait.Observe(w)
	r.exec.Observe(e)
	r.response.Observe(w + e)
	r.responses = append(r.responses, w+e)
}

// Count returns the number of completed requests.
func (r *ResponseRecorder) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.response.Count()
}

// MeanResponse returns the mean response time in seconds.
func (r *ResponseRecorder) MeanResponse() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.response.Mean()
}

// MeanWait returns the mean queue wait in seconds.
func (r *ResponseRecorder) MeanWait() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wait.Mean()
}

// MeanExec returns the mean execution time in seconds.
func (r *ResponseRecorder) MeanExec() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exec.Mean()
}

// Percentile returns the p-th percentile response time in seconds.
func (r *ResponseRecorder) Percentile(p float64) (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return stats.Percentile(r.responses, p)
}

// ThroughputMeter measures completions per second over its lifetime. The
// zero value is ready to use.
type ThroughputMeter struct {
	mu      sync.Mutex
	start   time.Time
	last    time.Time
	total   uint64
	started bool
}

// Start marks the measurement epoch at now. Observations before Start use
// the first observation as the epoch.
func (m *ThroughputMeter) Start(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = now
	m.started = true
}

// Observe records one completion at time now.
func (m *ThroughputMeter) Observe(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		m.start = now
		m.started = true
	}
	m.total++
	m.last = now
}

// Total returns the number of completions observed.
func (m *ThroughputMeter) Total() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Overall returns completions/second from the epoch to the last completion,
// or 0 before two data points exist.
func (m *ThroughputMeter) Overall() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.total == 0 || !m.last.After(m.start) {
		return 0
	}
	return float64(m.total) / m.last.Sub(m.start).Seconds()
}

// Series is an append-only time series of (t, value) points used by the
// harness to emit the paper's time-trace figures (13 and 14). Safe for
// concurrent appends.
type Series struct {
	mu sync.Mutex
	ts []time.Duration
	vs []float64
}

// Append adds a point.
func (s *Series) Append(t time.Duration, v float64) {
	s.mu.Lock()
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
	s.mu.Unlock()
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ts)
}

// At returns the i-th point.
func (s *Series) At(i int) (time.Duration, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ts[i], s.vs[i]
}

// Values returns a copy of the value column.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.vs))
	copy(out, s.vs)
	return out
}
