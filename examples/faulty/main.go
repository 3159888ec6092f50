// Faulty: failure policies keeping a service alive through bad requests.
//
// A four-worker service drains a queue of requests, but every 50th request
// is malformed and makes the worker functor panic. The same service runs
// under each failure policy:
//
//   - fail-stop (the default): the first panic surfaces as the run error
//     and the whole service shuts down;
//   - fail-restart: the executive captures the panic, respawns the worker
//     slot after a short backoff, and the batch completes;
//   - fail-degrade: each panic permanently retires the failing slot and
//     shrinks the stage's extent in the active configuration — visible to
//     mechanisms, which may grow it back later.
//
// Run with:
//
//	go run ./examples/faulty
package main

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dope"
	"dope/internal/queue"
)

const (
	requests  = 400
	poisonMod = 100 // request IDs divisible by this panic
)

// newService declares the parallelism once; the failure policy is the only
// thing that differs between runs.
func newService(policy dope.FailurePolicy, work *queue.Queue[int], served *atomic.Int64) *dope.NestSpec {
	return &dope.NestSpec{Name: "svc", Alts: []*dope.AltSpec{{
		Name: "doall",
		Stages: []dope.StageSpec{{
			Name:      "worker",
			Type:      dope.PAR,
			OnFailure: policy,
		}},
		Make: func(item any) (*dope.AltInstance, error) {
			return &dope.AltInstance{Stages: []dope.StageFns{{
				Fn: func(w *dope.Worker) dope.Status {
					if w.Suspending() {
						return dope.Suspended
					}
					id, ok, err := work.DequeueUntil(w.Done())
					if errors.Is(err, queue.ErrClosed) {
						return dope.Finished
					}
					if !ok {
						return dope.Suspended
					}
					if id > 0 && id%poisonMod == 0 {
						panic(fmt.Sprintf("malformed request %d", id))
					}
					w.Begin()                          //dopevet:ignore suspendcheck suspension is observed via DequeueUntil(w.Done())
					time.Sleep(300 * time.Microsecond) //dopevet:ignore tokenhold sleep simulates request work in the example
					served.Add(1)
					w.End()
					return dope.Executing
				},
				Load: func() float64 { return float64(work.Len()) },
			}}}, nil
		},
	}}}
}

func runPolicy(policy dope.FailurePolicy) {
	fmt.Printf("-- policy %s --\n", policy)
	work := queue.New[int](0)
	var served atomic.Int64
	spec := newService(policy, work, &served)
	d, err := dope.Create(spec, dope.StaticGoal(8),
		dope.WithInitialConfig(&dope.Config{Alt: 0, Extents: []int{6}}),
		dope.WithFailureBudget(16, time.Second),
		dope.WithRestartBackoff(500*time.Microsecond, 10*time.Millisecond),
		dope.WithTrace(func(ev dope.Event) {
			switch ev.Kind {
			case dope.EventTaskFailure:
				// The captured stack pinpoints the panic site; show its head.
				site := strings.SplitN(ev.Stack, "\n", 2)[0]
				fmt.Printf("  [%.2fs] task failure in %s/%s handled by %s (failure %d in window): %s\n",
					ev.Time.Seconds(), ev.Nest, ev.Stage, ev.Policy, ev.Failures, site)
			case dope.EventResize:
				fmt.Printf("  [%.2fs] stage %s extent %d -> %d (%s)\n",
					ev.Time.Seconds(), ev.Stage, ev.FromExtent, ev.ToExtent, ev.Mechanism)
			}
		}))
	if err != nil {
		panic(err)
	}
	defer d.StopOnInterrupt()() // Ctrl-C: drain the nest, then exit cleanly
	for i := 1; i <= requests; i++ {
		work.Enqueue(i)
	}
	work.Close()
	err = d.Destroy()
	switch {
	case err != nil:
		fmt.Printf("  service died after %d/%d requests: %v\n",
			served.Load(), requests, firstLine(err))
	default:
		fmt.Printf("  served %d/%d requests (%d absorbed panics), final config %s\n",
			served.Load(), requests, d.TaskFailures(), d.CurrentConfig())
	}
	fmt.Println()
}

// firstLine trims an error carrying a multi-line stack to its first line.
func firstLine(err error) string {
	return strings.SplitN(err.Error(), "\n", 2)[0]
}

func main() {
	for _, policy := range []dope.FailurePolicy{
		dope.FailStop, dope.FailRestart, dope.FailDegrade,
	} {
		runPolicy(policy)
	}
	fmt.Println("fail-stop loses the service to one bad request; fail-restart absorbs")
	fmt.Println("every panic; fail-degrade trades workers for survival and leaves the")
	fmt.Println("shrink visible for a mechanism to undo.")
}
