// Compliant counterparts: every shape deadlinecheck must stay silent on.
package deadlinecheck

import (
	"time"

	"dope/internal/core"
	"dope/internal/queue"
)

func dequeueWhile(pred func() bool) (int, bool) { return 0, pred() }

// Selecting on Worker.Done inside the loop is the canonical cooperative
// shape.
var okDone = &core.AltSpec{
	Name: "done",
	Stages: []core.StageSpec{
		{Name: "worker", Type: core.PAR, Deadline: 10 * time.Millisecond},
	},
	Make: func(item any) (*core.AltInstance, error) {
		return &core.AltInstance{Stages: []core.StageFns{{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				for {
					select {
					case <-w.Done():
						return w.End()
					default:
						spin()
					}
				}
			},
		}}}, nil
	},
}

// Polling Worker.Suspending also observes the abandonment (the retire flag
// is raised before Done closes), including through a predicate function
// literal — the DequeueWhile idiom.
var okSuspending = &core.AltSpec{
	Name: "suspending",
	Stages: []core.StageSpec{
		{Name: "poll", Type: core.PAR, Deadline: time.Second},
	},
	Make: func(item any) (*core.AltInstance, error) {
		return &core.AltInstance{Stages: []core.StageFns{{
			Fn: func(w *core.Worker) core.Status {
				for {
					if _, ok := dequeueWhile(func() bool { return !w.Suspending() }); !ok {
						return core.Suspended
					}
					if w.Begin() == core.Suspended {
						return core.Suspended
					}
					spin()
					if w.End() == core.Suspended {
						return core.Suspended
					}
				}
			},
		}}}, nil
	},
}

// Waiting for work in DequeueUntil(w.Done()) hands the Done channel to the
// wait itself: an abandoned slot's idle wait ends when Done closes.
var okDequeueUntil = &core.AltSpec{
	Name: "until",
	Stages: []core.StageSpec{
		{Name: "serve", Type: core.PAR, Deadline: 10 * time.Millisecond},
	},
	Make: func(item any) (*core.AltInstance, error) {
		work := queue.New[int](0)
		return &core.AltInstance{Stages: []core.StageFns{{
			Fn: func(w *core.Worker) core.Status {
				for {
					_, ok, err := work.DequeueUntil(w.Done())
					if err != nil {
						return core.Finished
					}
					if !ok {
						return core.Suspended
					}
					if w.Begin() == core.Suspended {
						return core.Suspended
					}
					spin()
					if w.End() == core.Suspended {
						return core.Suspended
					}
				}
			},
		}}}, nil
	},
}

// The TaskContext handle works too, and an inner loop under a cooperating
// outer loop is not re-checked: the outer loop bounds the exposure.
var okContext = &core.AltSpec{
	Name: "context",
	Stages: []core.StageSpec{
		{Name: "ctx", Type: core.PAR, Deadline: 10 * time.Millisecond},
	},
	Make: func(item any) (*core.AltInstance, error) {
		return &core.AltInstance{Stages: []core.StageFns{{
			Fn: func(w *core.Worker) core.Status {
				ctx := w.Context()
				for {
					select {
					case <-ctx.Done():
						return core.Suspended
					default:
					}
					for i := 0; i < 64; i++ {
						spin()
					}
				}
			},
		}}}, nil
	},
}

// Stages without a Deadline (absent or explicitly zero) are out of scope no
// matter what their loops do.
var okNoDeadline = &core.AltSpec{
	Name: "nodeadline",
	Stages: []core.StageSpec{
		{Name: "free", Type: core.PAR},
		{Name: "zero", Type: core.PAR, Deadline: 0},
	},
	Make: func(item any) (*core.AltInstance, error) {
		spinner := core.StageFns{
			Fn: func(w *core.Worker) core.Status {
				for {
					spin()
				}
			},
		}
		return &core.AltInstance{Stages: []core.StageFns{spinner, spinner}}, nil
	},
}

// A genuinely bounded loop may suppress the diagnostic with a reason.
var okSuppressed = &core.AltSpec{
	Name: "suppressed",
	Stages: []core.StageSpec{
		{Name: "bounded", Type: core.PAR, Deadline: time.Second},
	},
	Make: func(item any) (*core.AltInstance, error) {
		return &core.AltInstance{Stages: []core.StageFns{{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				//dopevet:ignore deadlinecheck three iterations finish far inside any plausible deadline
				for i := 0; i < 3; i++ {
					spin()
				}
				return w.End()
			},
		}}}, nil
	},
}
