// Seeded violations for the stagealias analyzer.
package stagealias

import (
	"dope"
	"dope/internal/core"
	"dope/internal/queue"
)

type item struct {
	id      int
	payload []byte
}

func produce(i *item)    {}
func consume(i *item)    {}
func transform(i *item)  {}
func observe(n int)      {}
func sink(v int)         {}
func stamp(b []byte) int { return len(b) }

// Shared written capture: both functors capture cursor, and the head writes
// it — after a drain the tail can still see (and race with) the head's
// bookkeeping for an item it supposedly handed off.
func sharedCursor(q *queue.Queue[int]) *core.AltInstance {
	cursor := 0
	return &core.AltInstance{Stages: []core.StageFns{
		{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				cursor++ // want `stage functor writes "cursor", which a sibling stage functor also captures`
				q.Enqueue(cursor)
				return w.End()
			},
		},
		{
			Fn: func(w *core.Worker) core.Status {
				v, err := q.Dequeue()
				if err != nil {
					return core.Finished
				}
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				sink(v + cursor)
				return w.End()
			},
		},
	}}
}

// The write can hide behind a selector or index: storing through a captured
// struct or slice is still a write to shared state. The diagnostic names
// the field, because the sibling touches the same one.
func sharedThroughSelector(q *queue.Queue[int]) *core.AltInstance {
	var last item
	return &core.AltInstance{Stages: []core.StageFns{
		{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				last.id++ // want `stage functor writes "last.id", which a sibling stage functor also captures`
				q.Enqueue(last.id)
				return w.End()
			},
		},
		{
			Fn: func(w *core.Worker) core.Status {
				v, err := q.Dequeue()
				if err != nil {
					return core.Finished
				}
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				observe(v + last.id)
				return w.End()
			},
		},
	}}
}

// Assignments to Fn fields after construction form the same sibling group
// as literal fields.
func sharedViaAssignment(q *queue.Queue[int]) *core.AltInstance {
	total := 0
	var head, tail core.StageFns
	head.Fn = func(w *core.Worker) core.Status {
		// The head reads total too, so the capture is genuinely shared.
		if total > 100 {
			return core.Finished
		}
		if w.Begin() == core.Suspended {
			return core.Suspended
		}
		q.Enqueue(1)
		return w.End()
	}
	tail.Fn = func(w *core.Worker) core.Status {
		v, err := q.Dequeue()
		if err != nil {
			observe(total)
			return core.Finished
		}
		if w.Begin() == core.Suspended {
			return core.Suspended
		}
		total += v // want `stage functor writes "total", which a sibling stage functor also captures`
		return w.End()
	}
	return &core.AltInstance{Stages: []core.StageFns{head, tail}}
}

// Captured-reference send: every iteration forwards the same *item, so the
// producer keeps a live alias to what the consumer is working on.
func sameReferenceEachSend(ch chan *item) *core.AltInstance {
	scratch := &item{}
	return &core.AltInstance{Stages: []core.StageFns{
		{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				produce(scratch)
				ch <- scratch // want `stage functor forwards the captured reference "scratch" to a sibling stage`
				return w.End()
			},
		},
		{
			Fn: func(w *core.Worker) core.Status {
				it := <-ch
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				consume(it)
				return w.End()
			},
		},
	}}
}

// The queue variant of the same bug: Enqueue of a captured slice that the
// sibling dequeues.
func sameBufferEachEnqueue(q *queue.Queue[[]byte]) *core.AltInstance {
	buf := make([]byte, 64)
	return &core.AltInstance{Stages: []core.StageFns{
		{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				q.Enqueue(buf) // want `stage functor forwards the captured reference "buf" to a sibling stage`
				return w.End()
			},
		},
		{
			Fn: func(w *core.Worker) core.Status {
				b, err := q.Dequeue()
				if err != nil {
					return core.Finished
				}
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				observe(stamp(b))
				return w.End()
			},
		},
	}}
}

// DequeueUntil is a receive like Dequeue: a sibling that waits for the
// captured buffer on the worker's Done channel still aliases it.
func sameBufferEachEnqueueUntil(q *queue.Queue[[]byte]) *core.AltInstance {
	buf := make([]byte, 64)
	return &core.AltInstance{Stages: []core.StageFns{
		{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				q.Enqueue(buf) // want `stage functor forwards the captured reference "buf" to a sibling stage`
				return w.End()
			},
		},
		{
			Fn: func(w *core.Worker) core.Status {
				b, ok, err := q.DequeueUntil(w.Done())
				if err != nil {
					return core.Finished
				}
				if !ok {
					return core.Suspended
				}
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				observe(stamp(b))
				return w.End()
			},
		},
	}}
}

// PipeStage functors group the same way as StageFns functors.
func pipeStageSiblings() []dope.PipeStage[int] {
	seen := 0
	return []dope.PipeStage[int]{
		{Name: "mark", Fn: func(v, extent int) int {
			seen++ // want `stage functor writes "seen", which a sibling stage functor also captures`
			return v
		}},
		{Name: "check", Fn: func(v, extent int) int {
			return v + seen
		}},
	}
}

// A whole-variable write conflicts with every field a sibling touches: the
// reset clobbers the id field the tail is reading, field granularity or no.
func wholeStructResetVsFieldRead(q *queue.Queue[int]) *core.AltInstance {
	var cur item
	return &core.AltInstance{Stages: []core.StageFns{
		{
			Fn: func(w *core.Worker) core.Status {
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				cur = item{} // want `stage functor writes "cur", which a sibling stage functor also captures`
				q.Enqueue(1)
				return w.End()
			},
		},
		{
			Fn: func(w *core.Worker) core.Status {
				v, err := q.Dequeue()
				if err != nil {
					return core.Finished
				}
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				observe(v + cur.id)
				return w.End()
			},
		},
	}}
}
