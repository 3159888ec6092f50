// Package spans is the benchmark's in-memory tracer. The benchmark's own
// wrappers record one span per call into a layer; nothing inside the
// program under test emits spans. Spans stay in memory for the length of a
// run and are written out as JSON lines when it ends.
package spans

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval. Start and End are nanoseconds since the
// tracer was created. Parent is the ID of the span that caused this one (0
// for a root span) and Req the request it belongs to (-1 when the wrapper
// that recorded it cannot know).
type Span struct {
	ID     uint64
	Parent uint64
	Req    int64
	Name   string
	Start  int64
	End    int64
}

// Dur returns the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer collects spans from any number of goroutines. Recording is gated
// by an on/off switch so one run can interleave traced and untraced slices
// and compare them (the tracing-overhead measurement).
type Tracer struct {
	epoch time.Time
	cost  int64
	on    atomic.Bool
	next  atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// New returns a tracer that is switched off.
func New() *Tracer {
	t := &Tracer{epoch: time.Now()}
	const n = 4096
	start := t.Now()
	for i := 0; i < n; i++ {
		t.Now()
	}
	t.cost = (t.Now() - start) / n
	return t
}

// ClockCost is what one Now call costs on this host, in nanoseconds,
// measured when the tracer was created. An interval between two
// consecutive Now calls includes one of them, which matters when the
// interval is itself a few hundred nanoseconds.
func (t *Tracer) ClockCost() int64 { return t.cost }

// Set switches recording on or off.
func (t *Tracer) Set(on bool) { t.on.Store(on) }

// On reports whether wrappers should record. A nil tracer is always off,
// so untraced runs pass nil and pay one comparison.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Now returns the tracer's clock: nanoseconds since it was created.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// At converts a wall-clock instant to the tracer's clock.
func (t *Tracer) At(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// NewID reserves a span ID, for a parent whose children are recorded
// before the parent itself ends.
func (t *Tracer) NewID() uint64 { return t.next.Add(1) }

// Add records a finished span. A zero ID is replaced by a fresh one; the
// ID used is returned.
func (t *Tracer) Add(s Span) uint64 {
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Spans returns the recorded spans; call it once every recording goroutine
// has stopped.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children (the
// stages of a pipeline run concurrently under one request) are counted
// once, and a child is clipped to its parent's interval.
func SelfTimes(all []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(all))
	for _, p := range all {
		kids := make([][2]int64, len(children[p.ID]))
		for i, k := range children[p.ID] {
			kids[i] = [2]int64{k.Start, k.End}
		}
		self[p.ID] = p.Dur() - Covered(kids, p.Start, p.End)
	}
	return self
}

// Covered returns how much of [from, to] the intervals cover, counting
// overlaps once. It sorts iv.
func Covered(iv [][2]int64, from, to int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), from
	for _, x := range iv {
		lo, hi := max(x[0], reach), min(x[1], to)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return covered
}

// WriteJSONL writes one JSON object per span to w.
func WriteJSONL(w io.Writer, all []Span) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf []byte
	for _, s := range all {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendUint(buf, s.ID, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, s.Parent, 10)
		buf = append(buf, `,"req":`...)
		buf = strconv.AppendInt(buf, s.Req, 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, "}\n"...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
