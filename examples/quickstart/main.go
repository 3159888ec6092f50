// Quickstart: the smallest complete DoPE program.
//
// It declares a two-stage pipeline (produce → consume) once, without fixing
// any degree of parallelism, hands it to the executive with a
// "max throughput" goal, and lets the TBF mechanism discover that the
// consumer needs most of the workers. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"time"

	"dope"
	"dope/internal/queue"
)

func main() {
	const items = 400

	work := queue.New[int](0) // the application's work queue
	out := queue.New[int](64) // produce → consume
	var consumed int

	// The parallelism description: one loop, two interacting tasks. The
	// produce task is sequential; the consume task's DoP is left to DoPE.
	spec := &dope.NestSpec{Name: "quickstart", Alts: []*dope.AltSpec{{
		Name: "pipeline",
		Stages: []dope.StageSpec{
			{Name: "produce", Type: dope.SEQ},
			{Name: "consume", Type: dope.PAR},
		},
		Make: func(item any) (*dope.AltInstance, error) {
			out.Reopen() // reconfiguration drains and closes it; reuse
			return &dope.AltInstance{Stages: []dope.StageFns{
				{
					Fn: func(w *dope.Worker) dope.Status {
						v, ok, err := work.DequeueUntil(w.Done())
						if errors.Is(err, queue.ErrClosed) {
							return dope.Finished
						}
						if !ok {
							return dope.Suspended
						}
						// The item is already claimed: parse and forward it
						// before propagating a Suspended window.
						w.Begin()
						time.Sleep(200 * time.Microsecond) //dopevet:ignore tokenhold sleep simulates parse work in the example
						st := w.End()
						out.Enqueue(v)
						if st == dope.Suspended {
							return dope.Suspended
						}
						return dope.Executing
					},
					Load: func() float64 { return float64(work.Len()) },
					Fini: out.Close,
				},
				{
					Fn: func(w *dope.Worker) dope.Status {
						_, err := out.Dequeue()
						if err != nil {
							return dope.Finished
						}
						// Drain stage: exits via the queue closing so items
						// queued before a suspension are never lost.
						w.Begin()                        //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						time.Sleep(2 * time.Millisecond) //dopevet:ignore tokenhold sleep simulates transform work in the example
						consumed++
						w.End()
						return dope.Executing
					},
					Load: func() float64 { return float64(out.Len()) },
				},
			}}, nil
		},
	}}}

	// Launch under the executive: 8 hardware contexts, throughput goal.
	d, err := dope.Create(spec, dope.MaxThroughput(8),
		dope.WithControlInterval(20*time.Millisecond),
		dope.WithTrace(func(ev dope.Event) {
			if ev.Kind == dope.EventReconfigure {
				fmt.Printf("  [%.2fs] DoPE reconfigured: %s\n",
					ev.Time.Seconds(), ev.Config)
			}
		}))
	if err != nil {
		panic(err)
	}
	defer d.StopOnInterrupt()() // Ctrl-C: drain the nest, then exit cleanly

	start := time.Now()
	for i := 0; i < items; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := d.Destroy(); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("consumed %d items in %v (%.0f items/s) with final config %s\n",
		consumed, elapsed.Round(time.Millisecond),
		float64(consumed)/elapsed.Seconds(), d.CurrentConfig())
}
