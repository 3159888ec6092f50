package dope

import (
	"dope/internal/core"
	"dope/internal/queue"
)

// This file provides a generic builder for the most common parallelism
// shape: a linear pipeline over a stream of items. The paper notes that
// "the process of defining the functors is mechanical — it can be
// simplified with compiler support" (§3.1); ChannelPipeline is that
// mechanical transformation as a library: it wires the inter-stage queues,
// the suspension-aware head, the Fini drain cascade, and the LoadCBs, so an
// application supplies only its per-stage transforms.

// PipeStage describes one stage of a built pipeline.
type PipeStage[T any] struct {
	// Name identifies the stage for monitoring and configuration.
	Name string
	// Par marks the stage parallelizable (DoPE may assign it any extent).
	Par bool
	// MinDoP and MaxDoP bound the extent when Par (both optional).
	MinDoP, MaxDoP int
	// Fn transforms one item. extent is the stage's current DoP extent,
	// for workloads whose per-item cost depends on coordination width.
	// It runs inside the monitored CPU section (Begin/End).
	Fn func(item T, extent int) T
}

// OverloadPolicy selects what a full inter-stage queue does with the next
// item: Block (backpressure, the default), ShedOldest (drop the head to
// admit the newcomer), or ShedNewest (refuse the newcomer). Re-exported
// from the queue package.
type OverloadPolicy = queue.OverloadPolicy

// Overload policies.
const (
	Block      = queue.Block
	ShedOldest = queue.ShedOldest
	ShedNewest = queue.ShedNewest
)

// PipelineOptions tune a built pipeline.
type PipelineOptions struct {
	// QueueCap bounds each inter-stage queue (default 8). Small caps keep
	// reconfiguration drains cheap and load signals honest.
	QueueCap int
	// Fused, when true, also declares a fused alternative that runs all
	// stages back to back in one parallel task — the TaskDescriptor choice
	// TBF's task fusion needs.
	Fused bool
	// Overload sets the inter-stage queues' full-queue policy. With a
	// shedding policy, dropped items never reach later stages or the done
	// callback; sheds are counted in each downstream stage's StageReport.
	Overload OverloadPolicy
}

// ChannelPipeline builds a NestSpec for a linear pipeline consuming items
// from src. The stream ends when src is closed and drained. done, if
// non-nil, observes each item leaving the last stage (completion
// accounting). The returned spec follows the drain protocol: on
// reconfiguration only the head stops pulling from src and in-flight items
// complete through the remaining stages, so no item is ever lost or
// duplicated. With Fused, a switch starts the other alternative at once and
// the old one drains behind it: for that long both receive from src (a
// channel hands each item to one of them), stage Fns and done run
// concurrently across the two even where a stage is not Par, and the
// persistent inter-stage queues are reopened only by the next pipeline
// instance, which the executive never makes while this one is alive.
//
// The builder is the mechanical equivalent of the hand-written ports in
// internal/apps; use those as references when a loop needs structure this
// shape cannot express (nested loops, non-linear topologies).
func ChannelPipeline[T any](name string, src <-chan T, stages []PipeStage[T], done func(T), opts PipelineOptions) *NestSpec {
	if len(stages) == 0 {
		// Return a spec that fails validation, so Create reports the
		// mistake instead of this function panicking.
		return &NestSpec{Name: name}
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 8
	}
	// Persistent inter-stage queues: qs[i] feeds stage i+1.
	n := len(stages)
	qs := make([]*queue.Queue[T], n-1)
	for i := range qs {
		qs[i] = queue.NewWithPolicy[T](opts.QueueCap, opts.Overload)
	}

	specStages := make([]core.StageSpec, n)
	for i, st := range stages {
		t := core.SEQ
		if st.Par {
			t = core.PAR
		}
		specStages[i] = core.StageSpec{
			Name: st.Name, Type: t, MinDoP: st.MinDoP, MaxDoP: st.MaxDoP,
		}
	}

	// recvSrc performs a suspension-aware receive from the source channel:
	// it blocks on src and the worker's Done channel together, so a
	// reconfiguration ends the wait at once and nothing else wakes it.
	recvSrc := func(w *Worker) (T, bool, bool) {
		select {
		case v, ok := <-src:
			return v, ok, !ok
		case <-w.Done():
			var zero T
			return zero, false, false
		}
	}

	pipelineAlt := &core.AltSpec{
		Name:   "pipeline",
		Stages: specStages,
		Make: func(item any) (*core.AltInstance, error) {
			for _, q := range qs {
				q.Reopen()
			}
			inst := &core.AltInstance{Stages: make([]core.StageFns, n)}
			for i := range stages {
				i := i
				fn := stages[i].Fn
				var in *queue.Queue[T]
				if i > 0 {
					in = qs[i-1]
				}
				var out *queue.Queue[T]
				if i < n-1 {
					out = qs[i]
				}
				sf := core.StageFns{}
				if i == 0 {
					sf.Fn = func(w *Worker) Status {
						if w.Suspending() {
							return Suspended
						}
						v, ok, closed := recvSrc(w)
						if closed {
							return Finished
						}
						if !ok {
							return Suspended
						}
						// The item is already claimed, so even a Suspended
						// window processes and forwards it before exiting.
						w.Begin()
						v = fn(v, w.Extent())
						st := w.End()
						if out != nil {
							out.Enqueue(v)
						} else if done != nil {
							done(v)
						}
						if st == Suspended {
							return Suspended
						}
						return Executing
					}
				} else {
					sf.Fn = func(w *Worker) Status {
						v, err := in.Dequeue()
						if err != nil {
							return Finished
						}
						// Drain stage: it exits only when the upstream queue
						// closes, so items queued before a suspension survive
						// an alternative switch. Begin/End statuses are
						// deliberately not propagated.
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						v = fn(v, w.Extent())
						w.End()
						if out != nil {
							out.Enqueue(v)
						} else if done != nil {
							done(v)
						}
						return Executing
					}
					q := in
					sf.Load = func() float64 { return float64(q.Len()) }
					sf.Shed = q.Shed
					sf.Sojourn = q.MeanSojourn
				}
				if out != nil {
					sf.Fini = out.Close
				}
				inst.Stages[i] = sf
			}
			return inst, nil
		},
	}

	alts := []*core.AltSpec{pipelineAlt}
	if opts.Fused {
		alts = append(alts, &core.AltSpec{
			Name:   "fused",
			Stages: []core.StageSpec{{Name: "fused", Type: core.PAR}},
			Make: func(item any) (*core.AltInstance, error) {
				return &core.AltInstance{Stages: []core.StageFns{{
					Fn: func(w *Worker) Status {
						if w.Suspending() {
							return Suspended
						}
						v, ok, closed := recvSrc(w)
						if closed {
							return Finished
						}
						if !ok {
							return Suspended
						}
						// As above: the claimed item is finished and handed
						// off before a Suspended status is propagated.
						w.Begin()
						for _, fs := range stages {
							v = fs.Fn(v, w.Extent())
						}
						st := w.End()
						if done != nil {
							done(v)
						}
						if st == Suspended {
							return Suspended
						}
						return Executing
					},
				}}}, nil
			},
		})
	}
	return &NestSpec{Name: name, Alts: alts}
}
