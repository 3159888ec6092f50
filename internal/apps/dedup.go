package apps

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/core"
	"dope/internal/queue"
)

// DedupParams tunes the deduplication application (the shape of PARSEC's
// dedup): a pipeline
//
//	chunk → hash → compress → write
//
// where duplicate chunks (identified by content hash) skip compression,
// plus a fused alternative processing whole requests in one parallel task.
type DedupParams struct {
	// ChunksPerItem is how many chunks one request splits into (default 16).
	ChunksPerItem int
	// UnitsPerChunk is the compression cost per unique nominal chunk
	// (default 900).
	UnitsPerChunk int
	// DupPeriod makes every DupPeriod-th chunk a duplicate of a hot chunk
	// (default 3, i.e. ~1/3 duplicates).
	DupPeriod int
	// Sigma is the per-worker coordination overhead (default 0.05).
	Sigma float64
}

func (p *DedupParams) defaults() {
	if p.ChunksPerItem <= 0 {
		p.ChunksPerItem = 16
	}
	if p.UnitsPerChunk <= 0 {
		p.UnitsPerChunk = 900
	}
	if p.DupPeriod <= 0 {
		p.DupPeriod = 3
	}
	if p.Sigma <= 0 {
		p.Sigma = 0.05
	}
}

// chunk is one deduplication unit in flight.
type chunk struct {
	parent    *Request
	start     time.Time
	remaining *atomic.Int64 // chunks of the parent still in flight
	seed      uint64
	sum       uint64
	dup       bool
}

// chunkSeed derives deterministic chunk content: every DupPeriod-th chunk
// shares one of a few hot seeds so the dedup index gets real hits.
func chunkSeed(reqID, i, dupPeriod int) uint64 {
	if i%dupPeriod == 0 {
		return uint64(1000 + i%4) // hot content
	}
	return uint64(reqID)<<20 | uint64(i)
}

// hashChunk produces the chunk's content digest over synthetic bytes. It
// is real CPU work (FNV-1a over a generated stream), not virtual work.
func hashChunk(seed uint64, bytes int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	x := seed
	for i := 0; i < bytes/8; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for b := 0; b < 8; b++ {
			buf[b] = byte(x >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// NewDedup builds the deduplication application as a root-level pipeline
// over the server's work queue. Reconfiguration uses the same drain
// protocol as ferret: only the head stage observes suspension, downstream
// stages drain until the Fini cascade closes their in-queues — behind the
// other alternative, which starts at once — and Make reopens the queues,
// which is safe because two instances of one alternative never coexist
// (core.AltSpec.Make). The dedup index is shared by both alternatives and
// is a sync.Map for the fused task's sake already.
func NewDedup(s *Server, p DedupParams) *core.NestSpec {
	p.defaults()
	q1 := queue.New[chunk](32)
	q2 := queue.New[chunk](32)
	q3 := queue.New[chunk](32)
	var index sync.Map // digest -> true

	hashWork := func(c *chunk) {
		c.sum = hashChunk(c.seed, 4096)
	}
	compressWork := func(c *chunk, extent int) {
		if _, dup := index.LoadOrStore(c.sum, true); dup {
			c.dup = true
			return
		}
		Work(InflatedUnits(int(float64(p.UnitsPerChunk)*c.parent.Size), extent, p.Sigma))
	}
	writeWork := func(c chunk) {
		Work(p.UnitsPerChunk / 16)
		if c.remaining.Add(-1) == 0 {
			s.Complete(c.parent, c.start)
		}
	}

	pipeline := &core.AltSpec{
		Name: "pipeline",
		Stages: []core.StageSpec{
			{Name: "chunk", Type: core.SEQ},
			{Name: "hash", Type: core.PAR},
			{Name: "compress", Type: core.PAR},
			{Name: "write", Type: core.SEQ},
		},
		Make: func(item any) (*core.AltInstance, error) {
			q1.Reopen()
			q2.Reopen()
			q3.Reopen()
			return &core.AltInstance{Stages: []core.StageFns{
				{
					// Chunk (head): content-defined splitting; the only
					// stage that watches suspension — checked every
					// iteration so a deep backlog cannot mask it.
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
						// The request is already claimed: chunk and forward
						// it before propagating a Suspended window.
						w.Begin()
						Work(p.UnitsPerChunk / 8)
						st := w.End()
						remaining := &atomic.Int64{}
						remaining.Store(int64(p.ChunksPerItem))
						for i := 0; i < p.ChunksPerItem; i++ {
							q1.Enqueue(chunk{
								parent: req, start: start, remaining: remaining,
								seed: chunkSeed(req.ID, i, p.DupPeriod),
							})
						}
						if st == core.Suspended {
							return core.Suspended
						}
						return core.Executing
					},
					Load: func() float64 { return float64(s.Work.Len()) },
					Fini: q1.Close,
				},
				{
					// Hash: digest each chunk; drains q1 to exhaustion.
					Fn: func(w *core.Worker) core.Status {
						c, err := q1.Dequeue()
						if err != nil {
							return core.Finished
						}
						// Drain stage: exits via q1 closing so queued chunks
						// survive an alternative switch.
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						hashWork(&c)
						w.End()
						q2.Enqueue(c)
						return core.Executing
					},
					Load: func() float64 { return float64(q1.Len()) },
					Fini: q2.Close,
				},
				{
					// Compress: unique chunks only; duplicates skip.
					Fn: func(w *core.Worker) core.Status {
						c, err := q2.Dequeue()
						if err != nil {
							return core.Finished
						}
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						compressWork(&c, w.Extent())
						w.End()
						q3.Enqueue(c)
						return core.Executing
					},
					Load: func() float64 { return float64(q2.Len()) },
					Fini: q3.Close,
				},
				{
					// Write: emit and account.
					Fn: func(w *core.Worker) core.Status {
						c, err := q3.Dequeue()
						if err != nil {
							return core.Finished
						}
						w.Begin() //dopevet:ignore suspendcheck drain stage: exit is driven by upstream queue close
						writeWork(c)
						w.End()
						return core.Executing
					},
					Load: func() float64 { return float64(q3.Len()) },
				},
			}}, nil
		},
	}

	fused := &core.AltSpec{
		Name:   "fused",
		Stages: []core.StageSpec{{Name: "dedup", Type: core.PAR}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				// The fused task: chunk, hash, compress, write per request
				// with no forwarding.
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
					w.Begin()
					Work(p.UnitsPerChunk / 8)
					remaining := &atomic.Int64{}
					remaining.Store(int64(p.ChunksPerItem))
					for i := 0; i < p.ChunksPerItem; i++ {
						c := chunk{
							parent: req, start: start, remaining: remaining,
							seed: chunkSeed(req.ID, i, p.DupPeriod),
						}
						hashWork(&c)
						compressWork(&c, w.Extent())
						writeWork(c)
					}
					if w.End() == core.Suspended {
						return core.Suspended
					}
					return core.Executing
				},
				Load: func() float64 { return float64(s.Work.Len()) },
			}}}, nil
		},
	}

	return &core.NestSpec{Name: "dedup", Alts: []*core.AltSpec{pipeline, fused}}
}
