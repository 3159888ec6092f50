// Package monitor aggregates the application features DoPE observes while a
// program runs: per-task execution time (measured between Task.Begin and
// Task.End), per-task throughput, iteration counts, and the load reported by
// each task's LoadCB. Mechanisms consume these aggregates through the query
// API of core.Report (the paper's DoPE::getExecTime / DoPE::getLoad).
//
// Stage instances come and go (an inner pipeline lives only as long as its
// parent's current work item), so the monitor separates durable per-stage
// aggregates, keyed by "nest/stage", from a registry of live LoadCB
// callbacks that is polled on demand.
//
// The per-task path is deliberately lock-free. Each worker slot owns a
// SlotRecorder — a padded accumulator struct written only by that worker —
// and the stage-wide idle state (how many Begin/End windows are open, and
// since when none are) lives in three shared atomics. A fold, run under the
// stage mutex by the control-loop tick and by every locked getter or
// slow-path observer, drains the accumulators into the EWMAs using
// watermarks, so Report() keeps its exact meaning (including the idle-rate
// correction) while ObserveBegin/End on the worker path cost a handful of
// atomic operations instead of three mutex sections. See DESIGN.md for the
// memory-ordering invariants.
package monitor

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/stats"
)

// Key identifies a stage across instantiations.
type Key struct {
	Nest  string
	Stage string
}

// noTime marks an unset nanosecond timestamp. Zero is not usable as the
// sentinel: virtual clocks in tests legitimately produce time.Unix(0, 0).
const noTime = math.MinInt64

// StageStats is the durable aggregate for one stage.
type StageStats struct {
	// Idle accounting for the rate EWMA, shared by all of the stage's
	// worker slots and therefore atomic. Rate measures how fast the stage
	// completes iterations while it is actually working; time the live
	// workers spend with no Begin/End window open (blocked on an empty
	// queue, waiting for sparse input) is idleness of the *workload*, not
	// slowness of the stage, and must not be folded into the
	// inter-completion gaps. open counts currently-open windows across the
	// stage's workers; lastEnd is the newest window close (in UnixNano), so
	// when open is zero it is also the moment the stage went idle; idleAccum
	// banks the accrued idle nanoseconds, which the next completion's fold
	// subtracts from its gap. Every ObserveEnd stores lastEnd *before* its
	// open decrement, so the Begin whose increment raises open from zero is
	// guaranteed to read an end-time no older than the close that emptied
	// the stage — that pairing is what keeps each banked idle stretch exact
	// without a lock.
	open       atomic.Int32
	lastEnd    atomic.Int64 // UnixNano of the newest window close; noTime if none
	idleAccum  atomic.Int64 // banked idle nanos awaiting the next completion
	firstBegin atomic.Int64 // UnixNano of the first window open since reset; noTime if none
	_          [32]byte     // keep the hot atomics off the mutex's cache line

	mu   sync.Mutex
	recs []*SlotRecorder // live per-slot accumulators, drained by foldLocked

	execTime    *stats.EWMA // seconds per iteration, CPU section only
	iterations  uint64
	completed   uint64      // instances that ran to Finished
	lastAtNanos int64       // UnixNano of the newest folded completion; noTime if none
	rate        *stats.EWMA // iterations/sec from inter-completion gaps
	execSum     float64

	// Worker-slot lifecycle, maintained by the executive's stage worker
	// groups. With in-place resizing the configured extent and the number
	// of workers actually iterating can briefly diverge (retiring slots
	// finish their current iteration; fresh slots are still warming up), so
	// mechanisms that normalize Rate or Load per worker should divide by
	// Workers(), the live gauge, not by the configured extent.
	workers int    // live worker slots (includes slots draining a retirement)
	spawned uint64 // slots ever started
	retired uint64 // slots that exited because a shrink retired them
	resizes uint64 // in-place extent changes applied to the stage

	// Failure accounting, maintained by the executive's failure policies:
	// total functor panics absorbed, and the streak since the stage last
	// completed an iteration (reset by a folded or observed completion).
	failures   uint64
	consecFail int

	// Stall accounting, maintained by the executive's watchdog: deadline
	// overruns detected (split out for drain-time stalls), live zombie
	// slots (abandoned by the watchdog but whose goroutine has not exited),
	// and shed items carried over from retired queue instances (see
	// RegisterShed).
	stalls      uint64
	stallsDrain uint64
	zombies     int
	shedPast    uint64
}

func newStageStats(alpha float64) *StageStats {
	s := &StageStats{
		execTime: stats.NewEWMA(alpha),
		rate:     stats.NewEWMA(alpha),
	}
	s.lastAtNanos = noTime
	s.lastEnd.Store(noTime)
	s.firstBegin.Store(noTime)
	return s
}

// SlotRecorder is one worker slot's private accumulator. The owning worker
// is the only writer of the producer fields; the stage fold reads them with
// atomic loads and tracks how much it has already consumed in the watermark
// fields, which only the fold (under the stage mutex) touches. The struct
// is padded so two slots' accumulators never share a cache line.
type SlotRecorder struct {
	s *StageStats

	// Producer fields, written only by the owning worker. The write order
	// in ObserveEnd — execSum and the stage's lastEnd before iters — is
	// load-bearing: a fold that reads iters first (and lastEnd after) is
	// guaranteed to see the end-time of every completion it counts.
	execSum atomic.Int64 // total CPU-section nanos
	iters   atomic.Uint64

	// Fold watermarks, owned by the consumer under s.mu.
	foldedIters uint64
	foldedExec  int64

	_ [24]byte // round the struct up to a full cache line
}

// NewSlotRecorder registers and returns a fresh accumulator for one worker
// slot. The caller must Release it when the slot's attempt ends so the
// final partial batch is folded and the slot stops being scanned.
func (s *StageStats) NewSlotRecorder() *SlotRecorder {
	rec := &SlotRecorder{s: s}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
	return rec
}

// Release folds the recorder's remaining accumulation and unregisters it.
func (rec *SlotRecorder) Release() {
	s := rec.s
	s.mu.Lock()
	s.foldLocked()
	for i, r := range s.recs {
		if r == rec {
			s.recs = append(s.recs[:i], s.recs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// ObserveBegin records that the slot's worker opened a Begin/End window at
// now (UnixNano): the stage is working again, so any idle stretch that just
// ended is banked for the next completion's gap correction. Lock-free.
func (rec *SlotRecorder) ObserveBegin(nowNanos int64) {
	rec.s.beginAtomic(nowNanos)
}

// ObserveEnd records one completed Begin..End section of dur nanoseconds
// ending at now (UnixNano). It replaces the locked ObserveIteration +
// ObserveEnd pair on the worker path: the iteration lands in the slot's
// accumulator for the next fold, and the idle state updates atomically.
func (rec *SlotRecorder) ObserveEnd(durNanos, nowNanos int64) {
	rec.execSum.Add(durNanos)
	rec.s.lastEnd.Store(nowNanos)
	rec.iters.Add(1)
	rec.s.open.Add(-1)
}

// beginAtomic is the shared open/idle transition for a window opening: the
// increment that wakes an idle stage banks the idle stretch since the close
// that emptied it. Before any window has closed there is no idle stretch to
// bank; instead the very first open seeds firstBegin, the gap origin the
// first fold's rate observation anchors to (without it the whole first batch
// of completions would make no rate observation at all, and a mechanism or
// profiler reading Rate() before the second control tick would see 0 — an
// "infinitely fast" stage by the demand math).
func (s *StageStats) beginAtomic(nowNanos int64) {
	if s.open.Add(1) == 1 {
		if le := s.lastEnd.Load(); le != noTime && nowNanos > le {
			s.idleAccum.Add(nowNanos - le)
		} else if le == noTime {
			s.firstBegin.CompareAndSwap(noTime, nowNanos)
		}
	}
}

// endAtomic is the shared open/idle transition for a window closing.
func (s *StageStats) endAtomic(nowNanos int64) {
	s.lastEnd.Store(nowNanos)
	s.open.Add(-1)
}

// foldLocked drains every live slot accumulator into the durable aggregate.
// Callers hold s.mu. The batch of k new completions updates the EWMAs as k
// observations of the batch mean (see stats.EWMA.ObserveBatch): for k == 1
// — every fold triggered by a getter right after a completion, and all
// test-driven sequences — this is bit-for-bit the per-iteration update; for
// larger batches it is the same estimator at tick granularity. The rate
// observation subtracts the idle time banked since the previous folded
// completion, preserving the idle-rate correction.
func (s *StageStats) foldLocked() {
	var k uint64
	var execDelta int64
	for _, rec := range s.recs {
		it := rec.iters.Load() // before the stage's lastEnd: see SlotRecorder ordering
		if d := it - rec.foldedIters; d > 0 {
			rec.foldedIters = it
			k += d
		}
		if ex := rec.execSum.Load(); ex != rec.foldedExec {
			execDelta += ex - rec.foldedExec
			rec.foldedExec = ex
		}
	}
	if k == 0 {
		if execDelta != 0 {
			s.execSum += float64(execDelta) / 1e9
		}
		return
	}
	// Every counted completion stored the stage's lastEnd before its iters
	// increment, so this load (after the iters loads above) is no older than
	// the newest completion in the batch. It may be newer — an End whose
	// iters bump lands in the next fold — which only shifts a sliver of gap
	// from the next batch into this one.
	last := s.lastEnd.Load()
	execSec := float64(execDelta) / 1e9
	s.execSum += execSec
	s.execTime.ObserveBatch(execSec/float64(k), k)
	s.iterations += k
	s.consecFail = 0
	idle := s.idleAccum.Swap(0)
	origin := s.lastAtNanos
	if origin == noTime {
		// First fold since (re)start: anchor the gap at the first window
		// open, so the first batch yields a real rate observation instead of
		// only seeding the gap state.
		origin = s.firstBegin.Load()
	}
	if origin != noTime {
		gap := float64(last-origin-idle) / 1e9
		if gap > 0 {
			s.rate.ObserveBatch(float64(k)/gap, k)
		}
	}
	s.lastAtNanos = last
}

// ObserveBegin records that a worker opened a Begin/End window at now: the
// stage is working again, so any idle stretch that just ended is banked for
// the next completion's gap correction.
func (s *StageStats) ObserveBegin(now time.Time) {
	s.beginAtomic(now.UnixNano())
}

// ObserveEnd records that a worker closed its Begin/End window at now; when
// it was the last open window, the stage is idle from now on.
func (s *StageStats) ObserveEnd(now time.Time) {
	s.endAtomic(now.UnixNano())
}

// ObserveIteration records one Begin..End section of d at time now. The
// rate observation uses the inter-completion gap minus the idle time banked
// by ObserveBegin/ObserveEnd, so the first completion after a quiet spell
// reflects how fast the stage works, not how long it waited for input.
func (s *StageStats) ObserveIteration(d time.Duration, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked()
	sec := d.Seconds()
	s.execTime.Observe(sec)
	s.execSum += sec
	s.iterations++
	s.consecFail = 0
	nowNanos := now.UnixNano()
	idle := s.idleAccum.Swap(0)
	origin := s.lastAtNanos
	if origin == noTime {
		origin = s.firstBegin.Load() // see foldLocked: first-completion anchor
	}
	if origin != noTime {
		gap := float64(nowNanos-origin-idle) / 1e9
		if gap > 0 {
			s.rate.Observe(1 / gap)
		}
	}
	s.lastAtNanos = nowNanos
}

// ObserveInstanceDone records that one instance of the stage finished.
func (s *StageStats) ObserveInstanceDone() {
	s.mu.Lock()
	s.completed++
	s.mu.Unlock()
}

// ObserveWorkerStart records that a worker slot began iterating the stage.
func (s *StageStats) ObserveWorkerStart() {
	s.mu.Lock()
	s.workers++
	s.spawned++
	s.mu.Unlock()
}

// ObserveWorkerExit records that a worker slot exited; retired says whether
// the exit was a shrink retiring the slot (as opposed to the stage
// finishing or the nest suspending). The live gauge drops either way, and
// the gap state is cleared when the stage goes idle so the rate EWMA does
// not manufacture a huge inter-completion gap (and hence a near-zero rate
// observation) from a retirement pause when iterations resume.
func (s *StageStats) ObserveWorkerExit(retired bool) {
	s.mu.Lock()
	s.foldLocked()
	if s.workers > 0 {
		s.workers--
	}
	if retired {
		s.retired++
	}
	if s.workers == 0 {
		s.resetGapLocked()
	}
	s.mu.Unlock()
}

// resetGapLocked clears the inter-completion gap state when the stage has
// no live workers: the next completion starts a fresh rate history instead
// of deriving a gap from before the pause. Safe to touch the shared atomics
// here because with zero live workers there are no producers.
func (s *StageStats) resetGapLocked() {
	s.lastAtNanos = noTime
	s.lastEnd.Store(noTime)
	s.idleAccum.Store(0)
	s.firstBegin.Store(noTime)
	s.open.Store(0)
}

// ObserveFailure records one functor panic absorbed by the stage and
// returns the consecutive-failure count — the streak since the stage last
// completed an iteration.
func (s *StageStats) ObserveFailure() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked()
	s.failures++
	s.consecFail++
	return s.consecFail
}

// ObserveStall records one deadline overrun detected by the watchdog;
// duringDrain says whether the run was draining for a reconfiguration or
// Stop when the stall was detected.
func (s *StageStats) ObserveStall(duringDrain bool) {
	s.mu.Lock()
	s.stalls++
	if duringDrain {
		s.stallsDrain++
	}
	s.mu.Unlock()
}

// ObserveAbandon records that the watchdog abandoned a stalled worker slot:
// the live gauge drops (the slot no longer counts toward the stage's
// capacity) and the zombie gauge rises until the stuck goroutine, if it
// ever unblocks, exits. As with ObserveWorkerExit, the gap state is cleared
// when the stage goes idle.
func (s *StageStats) ObserveAbandon() {
	s.mu.Lock()
	s.foldLocked()
	if s.workers > 0 {
		s.workers--
	}
	s.zombies++
	// The abandoned slot's window was open (that is what stalled); close it
	// here since its late End, if any, stays invisible to the monitors. The
	// moment idleness began is unknown, so no idle stretch is banked until
	// the next window opens.
	for {
		o := s.open.Load()
		if o <= 0 || s.open.CompareAndSwap(o, o-1) {
			break
		}
	}
	if s.workers == 0 {
		s.resetGapLocked()
	}
	s.mu.Unlock()
}

// ObserveZombieExit records that an abandoned slot's goroutine finally
// exited; only the zombie gauge cares — all other accounting for the slot
// was settled at abandonment.
func (s *StageStats) ObserveZombieExit() {
	s.mu.Lock()
	if s.zombies > 0 {
		s.zombies--
	}
	s.mu.Unlock()
}

// addShedPast folds the final shed total of a retired queue instance into
// the durable aggregate.
func (s *StageStats) addShedPast(n uint64) {
	s.mu.Lock()
	s.shedPast += n
	s.mu.Unlock()
}

func (s *StageStats) shedPastTotal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedPast
}

// ObserveResize records one in-place extent change applied to the stage.
func (s *StageStats) ObserveResize() {
	s.mu.Lock()
	s.resizes++
	s.mu.Unlock()
}

// StageSnapshot is everything the monitor knows about one stage at one
// instant — the single value that crosses from the monitor to core's
// StageReport. StageStats.Snapshot fills the durable aggregate (one mutex
// acquisition, one fold); Registry.Snapshot adds the gauges polled from the
// stage's live instances. Field names match core.StageReport's, which a
// reflection test over that hop relies on: a counter added here and not
// carried into the report fails it.
type StageSnapshot struct {
	// ExecTime is the smoothed and MeanExecTime the lifetime mean
	// per-iteration CPU time, in seconds; Rate the smoothed completion rate
	// (iterations/sec, summed over concurrent instances).
	ExecTime     float64
	MeanExecTime float64
	Rate         float64
	// Observed reports that at least one completed iteration has been
	// folded — the readiness sentinel consumers check before trusting
	// ExecTime, MeanExecTime and Rate, which are all 0 until then (and a
	// zero service time reads as an infinitely fast stage to the what-if
	// profiler).
	Observed bool
	// Iterations and Completed count loop-body executions and finished
	// stage instances.
	Iterations uint64
	Completed  uint64
	// Workers is the live worker-slot gauge; Spawned, Retired and Resizes
	// count slots ever started, slots retired by shrinks, and in-place
	// extent changes.
	Workers int
	Spawned uint64
	Retired uint64
	Resizes uint64
	// Failures counts absorbed functor panics; ConsecutiveFailures is the
	// streak since the stage last completed an iteration.
	Failures            uint64
	ConsecutiveFailures int
	// Stalls counts deadline overruns (StallsDuringDrain the subset seen
	// while draining); Zombies is the live gauge of abandoned slots whose
	// goroutines have not exited.
	Stalls            uint64
	StallsDuringDrain uint64
	Zombies           int
	// Shed is the cumulative count of items the stage's in-queues dropped:
	// retired instances' totals, plus the live counters when taken through
	// Registry.Snapshot.
	Shed uint64
	// Load is the sum of the live LoadCBs and LoadInstances how many
	// reported; QueueSojourn the mean of the live sojourn gauges in seconds
	// (zero when none report). Filled by Registry.Snapshot only.
	Load          float64
	LoadInstances int
	QueueSojourn  float64
}

// Snapshot folds any per-slot accumulation and returns the stage's durable
// aggregate under one acquisition of the stage mutex.
func (s *StageStats) Snapshot() StageSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked()
	snap := StageSnapshot{
		ExecTime:            s.execTime.Value(),
		Rate:                s.rate.Value(),
		Observed:            s.iterations > 0,
		Iterations:          s.iterations,
		Completed:           s.completed,
		Workers:             s.workers,
		Spawned:             s.spawned,
		Retired:             s.retired,
		Resizes:             s.resizes,
		Failures:            s.failures,
		ConsecutiveFailures: s.consecFail,
		Stalls:              s.stalls,
		StallsDuringDrain:   s.stallsDrain,
		Zombies:             s.zombies,
		Shed:                s.shedPast,
	}
	if s.iterations > 0 {
		snap.MeanExecTime = s.execSum / float64(s.iterations)
	}
	return snap
}

// Fold drains any per-slot accumulation into the durable aggregate. The
// executive's control loop calls it once per tick so the EWMAs advance at
// tick granularity even when nothing queries the stage.
func (s *StageStats) Fold() {
	s.mu.Lock()
	s.foldLocked()
	s.mu.Unlock()
}

// Registry is the process-wide monitor. Safe for concurrent use.
type Registry struct {
	alpha float64

	mu       sync.Mutex
	stages   map[Key]*StageStats
	loads    map[Key]map[int64]func() float64 // live LoadCBs by instance id
	sheds    map[Key]map[int64]func() uint64  // live shed counters by instance id
	sojourns map[Key]map[int64]func() float64 // live sojourn gauges by instance id
	nextID   int64
}

// NewRegistry returns a registry whose EWMAs use the given alpha.
func NewRegistry(alpha float64) *Registry {
	return &Registry{
		alpha:    alpha,
		stages:   make(map[Key]*StageStats),
		loads:    make(map[Key]map[int64]func() float64),
		sheds:    make(map[Key]map[int64]func() uint64),
		sojourns: make(map[Key]map[int64]func() float64),
	}
}

// Stage returns (creating if needed) the aggregate for key.
func (r *Registry) Stage(key Key) *StageStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stageLocked(key)
}

func (r *Registry) stageLocked(key Key) *StageStats {
	s, ok := r.stages[key]
	if !ok {
		s = newStageStats(r.alpha)
		r.stages[key] = s
	}
	return s
}

// FoldAll drains every stage's per-slot accumulators; the executive's
// control loop runs it each tick.
func (r *Registry) FoldAll() {
	r.mu.Lock()
	all := make([]*StageStats, 0, len(r.stages))
	for _, s := range r.stages {
		all = append(all, s)
	}
	r.mu.Unlock()
	for _, s := range all {
		s.Fold()
	}
}

// RegisterLoad registers a live LoadCB for key and returns a handle to
// unregister it when the instance ends. A nil cb registers nothing and
// returns a no-op release.
func (r *Registry) RegisterLoad(key Key, cb func() float64) (release func()) {
	if cb == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	m, ok := r.loads[key]
	if !ok {
		m = make(map[int64]func() float64)
		r.loads[key] = m
	}
	m[id] = cb
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		if m, ok := r.loads[key]; ok {
			delete(m, id)
		}
		r.mu.Unlock()
	}
}

// RegisterShed registers a live shed counter (typically Queue.Shed of the
// stage's in-queue) for key and returns a handle to unregister it when the
// instance ends. Unlike load, shed is cumulative: the release folds the
// counter's final value into the stage's durable aggregate so Shed never
// goes backwards across reconfigurations. A nil cb registers nothing.
func (r *Registry) RegisterShed(key Key, cb func() uint64) (release func()) {
	if cb == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	m, ok := r.sheds[key]
	if !ok {
		m = make(map[int64]func() uint64)
		r.sheds[key] = m
	}
	m[id] = cb
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		live := false
		if m, ok := r.sheds[key]; ok {
			if _, live = m[id]; live {
				delete(m, id)
			}
		}
		r.mu.Unlock()
		if live {
			r.Stage(key).addShedPast(cb())
		}
	}
}

// RegisterSojourn registers a live queue-sojourn gauge (typically
// Queue.MeanSojourn of the stage's in-queue) for key and returns a handle to
// unregister it when the instance ends. Sojourn is a gauge like load, not a
// cumulative counter: nothing is folded on release. A nil cb registers
// nothing and returns a no-op release.
func (r *Registry) RegisterSojourn(key Key, cb func() float64) (release func()) {
	if cb == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	m, ok := r.sojourns[key]
	if !ok {
		m = make(map[int64]func() float64)
		r.sojourns[key] = m
	}
	m[id] = cb
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		if m, ok := r.sojourns[key]; ok {
			delete(m, id)
		}
		r.mu.Unlock()
	}
}

// callbacks copies one key's live registrations so they can be invoked
// after r.mu is released: they take queue locks of their own.
func callbacks[F any](m map[int64]F) []F {
	out := make([]F, 0, len(m))
	for _, cb := range m {
		out = append(out, cb)
	}
	return out
}

// Snapshot returns the complete observation of one stage: the durable
// aggregate plus the load, shed and sojourn gauges polled from its live
// instances. One acquisition of the registry mutex and one of the stage's.
func (r *Registry) Snapshot(key Key) StageSnapshot {
	r.mu.Lock()
	s := r.stageLocked(key)
	loads := callbacks(r.loads[key])
	sheds := callbacks(r.sheds[key])
	sojourns := callbacks(r.sojourns[key])
	r.mu.Unlock()
	snap := s.Snapshot()
	for _, cb := range loads {
		snap.Load += cb()
	}
	snap.LoadInstances = len(loads)
	for _, cb := range sheds {
		snap.Shed += cb()
	}
	for _, cb := range sojourns {
		snap.QueueSojourn += cb()
	}
	if n := len(sojourns); n > 0 {
		snap.QueueSojourn /= float64(n)
	}
	return snap
}

// Shed returns the stage's cumulative shed-item count: retired instances'
// totals plus the live counters. It is Snapshot(key).Shed without the fold
// and the other gauges, for the watchdog's per-patrol delta scan.
func (r *Registry) Shed(key Key) uint64 {
	r.mu.Lock()
	s := r.stageLocked(key)
	sheds := callbacks(r.sheds[key])
	r.mu.Unlock()
	total := s.shedPastTotal()
	for _, cb := range sheds {
		total += cb()
	}
	return total
}

// Keys returns all stage keys ever observed, in unspecified order.
func (r *Registry) Keys() []Key {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Key, 0, len(r.stages))
	for k := range r.stages {
		out = append(out, k)
	}
	return out
}

// Reset clears all aggregates and live load registrations; used between
// experiment runs that share a runtime.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stages = make(map[Key]*StageStats)
	r.loads = make(map[Key]map[int64]func() float64)
	r.sheds = make(map[Key]map[int64]func() uint64)
	r.sojourns = make(map[Key]map[int64]func() float64)
}
