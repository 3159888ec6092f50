package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkWorkerLoop measures the full executive loop overhead per
// iteration (functor dispatch + status checks) without a monitored section.
func BenchmarkWorkerLoop(b *testing.B) {
	var iters atomic.Int64
	spec := &NestSpec{Name: "bench", Alts: []*AltSpec{{
		Name:   "loop",
		Stages: []StageSpec{{Name: "worker", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					if int(iters.Add(1)) > b.N {
						return Finished
					}
					return Executing
				},
			}}}, nil
		},
	}}}
	e, err := New(spec, WithContexts(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNestInstantiation measures the cost of one nested-loop
// instantiation (Make + spawn + join) — the price of a reconfigurable
// per-item inner loop.
func BenchmarkNestInstantiation(b *testing.B) {
	inner := &NestSpec{Name: "inner", Alts: []*AltSpec{{
		Name:   "one",
		Stages: []StageSpec{{Name: "body", Type: SEQ}},
		Make: func(item any) (*AltInstance, error) {
			done := false
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					if done {
						return Finished
					}
					done = true
					return Executing
				},
			}}}, nil
		},
	}}}
	var iters atomic.Int64
	spec := &NestSpec{Name: "bench", Alts: []*AltSpec{{
		Name:   "loop",
		Stages: []StageSpec{{Name: "outer", Type: SEQ, Nest: inner}},
		Make: func(item any) (*AltInstance, error) {
			return &AltInstance{Stages: []StageFns{{
				Fn: func(w *Worker) Status {
					if int(iters.Add(1)) > b.N {
						return Finished
					}
					if _, err := w.RunNest(inner, nil); err != nil {
						b.Error(err)
						return Finished
					}
					return Executing
				},
			}}}, nil
		},
	}}}
	e, err := New(spec, WithContexts(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReportBuild measures one monitoring snapshot over a two-level
// spec — the control loop's per-tick cost.
func BenchmarkReportBuild(b *testing.B) {
	spec := transcodeSpec()
	e, err := New(spec, WithContexts(24))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Report() == nil {
			b.Fatal("nil report")
		}
	}
	b.StopTimer()
	// The executive was never started; give its channels nothing to do.
	_ = time.Now()
}
