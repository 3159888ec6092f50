package apps

import (
	"errors"
	"fmt"
	"time"

	"dope/internal/core"
	"dope/internal/metrics"
	"dope/internal/platform"
	"dope/internal/queue"
)

// Request is one user transaction: a video to transcode, a query to
// answer, a file to compress.
type Request struct {
	// ID orders requests for debugging.
	ID int
	// Size scales the request's work (1.0 = nominal).
	Size float64
	// Arrived is when the request entered the work queue.
	Arrived time.Time
}

// Server is the service harness around an online application: the work
// queue the paper's "task queueing thread" feeds, plus response-time and
// throughput accounting. One Server backs one application instance.
type Server struct {
	// Work is the request queue; the outer task's LoadCB reports its
	// occupancy.
	Work *queue.Queue[*Request]
	// Resp records per-request wait/exec/response times.
	Resp *metrics.ResponseRecorder
	// Meter tracks completions per second.
	Meter *metrics.ThroughputMeter

	clock platform.Clock
	subs  int
}

// NewServer returns a harness using the given clock (nil = wall clock).
func NewServer(clock platform.Clock) *Server {
	if clock == nil {
		clock = platform.WallClock{}
	}
	return &Server{
		Work:  queue.New[*Request](0),
		Resp:  &metrics.ResponseRecorder{},
		Meter: &metrics.ThroughputMeter{},
		clock: clock,
	}
}

// Clock returns the server's clock.
func (s *Server) Clock() platform.Clock { return s.clock }

// Submit stamps and enqueues a request.
func (s *Server) Submit(size float64) error {
	s.subs++
	return s.Work.Enqueue(&Request{ID: s.subs, Size: size, Arrived: s.clock.Now()})
}

// Close marks the end of the request stream; tasks finish after draining.
func (s *Server) Close() { s.Work.Close() }

// Complete records a finished request whose execution began at execStart.
func (s *Server) Complete(r *Request, execStart time.Time) {
	now := s.clock.Now()
	s.Resp.Observe(execStart.Sub(r.Arrived), now.Sub(execStart))
	s.Meter.Observe(now)
}

// OuterLoop builds the canonical root nest of a two-level server
// application (the paper's Figure 1 structure): a single PAR stage that
// dequeues requests and runs the inner nest once per request, with
// response accounting around it. This is the DoPE port of the Pthreads
// Transcode outer loop in Figure 7.
func OuterLoop(name string, s *Server, inner *core.NestSpec) *core.NestSpec {
	return &core.NestSpec{Name: name, Alts: []*core.AltSpec{{
		Name:   "outer",
		Stages: []core.StageSpec{{Name: "serve", Type: core.PAR, Nest: inner}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					if w.Suspending() {
						return core.Suspended
					}
					req, ok, err := s.Work.DequeueUntil(w.Done())
					if errors.Is(err, queue.ErrClosed) {
						return core.Finished
					}
					if !ok {
						return core.Suspended
					}
					start := s.clock.Now()
					st, err := w.RunNest(inner, req)
					if err != nil {
						// An instantiation error is fatal to the request but
						// must not wedge the loop.
						return core.Finished
					}
					s.Complete(req, start)
					if st == core.Suspended {
						return core.Suspended
					}
					return core.Executing
				},
				Load: func() float64 { return float64(s.Work.Len()) },
			}}}, nil
		},
	}}}
}

// reqFrom extracts the *Request a nested instantiation was made for.
func reqFrom(item any) (*Request, error) {
	r, ok := item.(*Request)
	if !ok || r == nil {
		return nil, fmt.Errorf("apps: nested loop instantiated without a request (got %T)", item)
	}
	return r, nil
}
