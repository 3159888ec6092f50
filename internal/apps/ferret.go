package apps

import (
	"errors"
	"time"

	"dope/internal/core"
	"dope/internal/queue"
)

// FerretParams tunes the content-based image-search engine (the shape of
// PARSEC's ferret): a six-stage pipeline
//
//	load → segment → extract → index → rank → out
//
// over queries, where the middle four stages are parallel and heavily
// skewed toward rank (similarity search against the whole index), plus a
// fused alternative in which one parallel task performs all stages with no
// inter-stage forwarding — the fused task the paper's developers registered
// for TBF (§7.2).
type FerretParams struct {
	// UnitsBase scales all stage costs (default 400).
	UnitsBase int
	// HopUnits is the communication cost paid per inter-stage queue
	// transfer in the pipeline alternative (default UnitsBase/4); the
	// fused task avoids it.
	HopUnits int
	// Sigma is the per-worker coordination overhead (default 0.03).
	Sigma float64
}

func (p *FerretParams) defaults() {
	if p.UnitsBase <= 0 {
		p.UnitsBase = 400
	}
	if p.HopUnits <= 0 {
		p.HopUnits = p.UnitsBase / 4
	}
	if p.Sigma <= 0 {
		p.Sigma = 0.03
	}
}

// ferretShape gives the stage cost multipliers (× UnitsBase): rank
// dominates, so thread placement matters.
var ferretShape = [6]float64{0.5, 1, 2, 4, 8, 0.5}

// ferretStageNames index-aligns with ferretShape.
var ferretStageNames = [6]string{"load", "segment", "extract", "index", "rank", "out"}

// fitem is a query in flight through the pipeline.
type fitem struct {
	req   *Request
	start time.Time
}

// NewFerret builds the image-search application as a root-level pipeline
// over the server's query queue.
//
// Reconfiguration follows the paper's drain protocol (§3.2 step 5): only
// the head stage observes suspension — it stops pulling new queries — and
// every downstream stage keeps consuming until the Fini cascade closes its
// in-queue, so in-flight work never migrates across alternatives. On a
// switch the fused alternative starts pulling queries while the pipeline
// drains behind it (and vice versa); what makes it safe for Make to reopen
// the (bounded) inter-stage queues is that the executive never instantiates
// an alternative while an earlier instance of it is alive (core.AltSpec.Make)
// — the queues are closed and empty by the time Make runs again.
func NewFerret(s *Server, p FerretParams) *core.NestSpec {
	p.defaults()
	// Persistent inter-stage queues (qs[0] feeds segment, ..., qs[4] feeds
	// out); bounded so the cheap head stage cannot inhale the entire work
	// queue and defeat the LoadCB signals.
	var qs [5]*queue.Queue[fitem]
	for i := range qs {
		qs[i] = queue.New[fitem](4)
	}
	stageUnits := func(i int, size float64) int {
		return int(ferretShape[i] * float64(p.UnitsBase) * size)
	}
	// work runs the CPU portion of middle stage i (1..4) for an item: the
	// forwarding cost plus the stage kernel, issued as one Work call (sleep
	// wakeups carry real latency on small hosts; one virtual-work call per
	// CPU section keeps measured times faithful to the model).
	work := func(i int, it fitem, extent int) {
		Work(p.HopUnits + InflatedUnits(stageUnits(i, it.req.Size), extent, p.Sigma))
	}
	finish := func(it fitem) {
		Work(stageUnits(5, it.req.Size))
		s.Complete(it.req, it.start)
	}

	pipeline := &core.AltSpec{
		Name: "pipeline",
		Stages: []core.StageSpec{
			{Name: ferretStageNames[0], Type: core.SEQ},
			{Name: ferretStageNames[1], Type: core.PAR},
			{Name: ferretStageNames[2], Type: core.PAR},
			{Name: ferretStageNames[3], Type: core.PAR},
			{Name: ferretStageNames[4], Type: core.PAR},
			{Name: ferretStageNames[5], Type: core.SEQ},
		},
		Make: func(item any) (*core.AltInstance, error) {
			for _, q := range qs {
				q.Reopen() // the previous pipeline instance has drained and closed it
			}
			inst := &core.AltInstance{Stages: make([]core.StageFns, 6)}
			// Stage 0 (head): load queries from the server work queue. It
			// alone watches for suspension; its Fini closes qs[0] so the
			// drain cascades downstream.
			inst.Stages[0] = core.StageFns{
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
					it := fitem{req: req, start: s.clock.Now()}
					// The request is already claimed: load and forward it
					// before propagating a Suspended window.
					w.Begin()
					Work(stageUnits(0, req.Size))
					st := w.End()
					qs[0].Enqueue(it)
					if st == core.Suspended {
						return core.Suspended
					}
					return core.Executing
				},
				Load: func() float64 { return float64(s.Work.Len()) },
				Fini: qs[0].Close,
			}
			// Stages 1..4: the parallel middle. They drain their in-queues
			// to exhaustion regardless of suspension.
			for i := 1; i <= 4; i++ {
				in, out := qs[i-1], qs[i]
				stageIdx := i
				inst.Stages[i] = core.StageFns{
					Fn: func(w *core.Worker) core.Status {
						it, err := in.Dequeue()
						if err != nil {
							return core.Finished
						}
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						work(stageIdx, it, w.Extent())
						w.End()
						out.Enqueue(it)
						return core.Executing
					},
					Load: func() float64 { return float64(in.Len()) },
					Fini: out.Close,
				}
			}
			// Stage 5: rank output and completion accounting.
			inst.Stages[5] = core.StageFns{
				Fn: func(w *core.Worker) core.Status {
					it, err := qs[4].Dequeue()
					if err != nil {
						return core.Finished
					}
					w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
					finish(it)
					w.End()
					return core.Executing
				},
				Load: func() float64 { return float64(qs[4].Len()) },
			}
			return inst, nil
		},
	}

	fused := &core.AltSpec{
		Name: "fused",
		Stages: []core.StageSpec{
			{Name: "query", Type: core.PAR},
		},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				// One parallel task performs load..out back to back with no
				// forwarding cost — the explicitly fused task.
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
					it := fitem{req: req, start: s.clock.Now()}
					w.Begin()
					units := stageUnits(0, req.Size)
					for j := 1; j <= 4; j++ {
						units += InflatedUnits(stageUnits(j, req.Size), w.Extent(), p.Sigma)
					}
					Work(units)
					finish(it)
					if w.End() == core.Suspended {
						return core.Suspended
					}
					return core.Executing
				},
				Load: func() float64 { return float64(s.Work.Len()) },
			}}}, nil
		},
	}

	return &core.NestSpec{Name: "ferret", Alts: []*core.AltSpec{pipeline, fused}}
}
