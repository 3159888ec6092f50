// Seeded violations for the tokenhold analyzer.
package tokenhold

import (
	"sync"
	"time"

	"dope/internal/core"
	"dope/internal/queue"
)

func compute() {}

func sleeps(w *core.Worker) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	time.Sleep(time.Millisecond) // want `blocking call to time\.Sleep while holding a platform context`
	return w.End()
}

func sends(w *core.Worker, out chan int) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	out <- 1 // want `blocking channel send while holding a platform context`
	return w.End()
}

func receives(w *core.Worker, in chan int) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	v := <-in // want `blocking channel receive while holding a platform context`
	_ = v
	return w.End()
}

func selects(w *core.Worker, in chan int) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	select { // want `blocking select while holding a platform context`
	case v := <-in:
		_ = v
	}
	return w.End()
}

func locks(w *core.Worker, mu *sync.Mutex) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	mu.Lock() // want `blocking call to \(sync\.Mutex\)\.Lock while holding a platform context`
	mu.Unlock()
	return w.End()
}

func nests(w *core.Worker, spec *core.NestSpec) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	w.RunNest(spec, nil) // want `blocking Worker\.RunNest \(waits for a nested loop\) while holding`
	return w.End()
}

func dequeues(w *core.Worker, q *queue.Queue[int]) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	v, _ := q.Dequeue() // want `blocking call to \(queue\.Queue\)\.Dequeue while holding`
	_ = v
	return w.End()
}

// DequeueUntil blocks for an item as surely as Dequeue; waking on Done does
// not make holding the context across it any less a leak.
func dequeuesUntil(w *core.Worker, q *queue.Queue[int]) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	v, _, _ := q.DequeueUntil(w.Done()) // want `blocking call to \(queue\.Queue\)\.DequeueUntil while holding`
	_ = v
	return w.End()
}

func rangesChan(w *core.Worker, in chan int) core.Status {
	if w.Begin() == core.Suspended {
		return core.Suspended
	}
	for v := range in { // want `blocking range over a channel while holding`
		_ = v
	}
	return w.End()
}
