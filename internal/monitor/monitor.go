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
// The per-task path is deliberately lock-free and writes no shared line.
// Each worker slot owns a SlotRecorder — a padded accumulator struct written
// only by that worker — holding its iteration count, its open/closed state,
// its newest window close and its banked share of stage idle time. A fold,
// run under the stage mutex by the control-loop tick, by Snapshot and by
// the slot-lifecycle and failure observers, drains the accumulators into
// the EWMAs using watermarks and derives the stage's idle time from the
// slot data it walks, so Report() keeps its meaning (including the
// idle-rate correction) while ObserveBegin/End on the worker path touch
// only the slot's own cache lines.
// See DESIGN.md for the memory-ordering invariants and the sampling rule.
package monitor

import (
	"math"
	"sync"
	"sync/atomic"

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

// NoStamp is the begin time of a section whose Begin skipped the clock.
const NoStamp = noTime

// idleScanGap is the shortest gap between a slot's windows after which its
// next stamped Begin checks whether the whole stage was idle. Only then does
// a slot read its siblings' lines, so the check costs a few cache misses per
// 20 µs of idleness at most; a stage-wide idle stretch shorter than this
// counts as working time in a stage with more than one slot.
const idleScanGap = 20_000 // ns

// StageStats is the durable aggregate for one stage.
type StageStats struct {
	// live is the registered slot recorders, republished (copied) under mu
	// on every register and release so ObserveBegin's idle check can walk
	// the siblings without the lock. Read-mostly: written once per slot
	// start and exit.
	live atomic.Pointer[[]*SlotRecorder]
	// releasedEnd is the newest window close (UnixNano) among the slots
	// released since the last gap reset, noTime if none: a Begin that
	// banks idle time measures from it when the released slot closed after
	// every live one. Written under mu before the live list drops the slot.
	releasedEnd atomic.Int64

	mu   sync.Mutex
	recs []*SlotRecorder // live per-slot accumulators, drained by foldLocked

	execTime    *stats.EWMA // seconds per iteration, CPU section only
	iterations  uint64
	completed   uint64      // instances that ran to Finished
	lastAtNanos int64       // UnixNano of the newest folded completion; noTime if none
	rate        *stats.EWMA // iterations/sec of working time
	// execSum is the total measured CPU-section time in seconds and timed
	// the number of iterations it stands for. Under sampled timing (see
	// SlotRecorder) timed trails iterations by the windows closed since each
	// slot's newest timed one, so MeanExecTime divides by timed.
	execSum float64
	timed   uint64
	// idleBank is stage idle time banked by the slots' Begins and not yet
	// subtracted from a rate gap: it waits here across folds that saw no
	// completion.
	idleBank int64

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
	s.live.Store(new([]*SlotRecorder))
	s.releasedEnd.Store(noTime)
	return s
}

// SlotRecorder is one worker slot's private accumulator. The owning worker
// is the only writer of the producer fields; the stage fold reads them with
// atomic loads and tracks how much it has already consumed in the watermark
// fields, which only the fold (under the stage mutex) touches. A sibling
// slot reads state and endAt, and only after an idle gap (idleScanGap). The
// struct is padded to three cache lines, so two slots' accumulators never
// share a line.
//
// Sampled timing. The caller decides which windows to time (Worker.Begin in
// internal/core reads the clock for one window in k while windows are
// short). A timed window's duration is weighted by the number of windows it
// stands for — itself plus the untimed ones since the previous timed window
// — so execSum/timed is an unbiased estimate of the mean window as long as
// the choice of which window to time does not depend on that window's own
// length.
type SlotRecorder struct {
	s *StageStats

	// Producer fields, written only by the owning worker. The write order
	// in ObserveEnd — execSum, timed and endAt before state — is
	// load-bearing: a fold that reads state first (and the others after) is
	// guaranteed to see the time and the end of every completion it counts.
	state   atomic.Uint64 // iterations<<1 | 1 while a window is open
	execSum atomic.Int64  // weighted CPU-section nanos of the timed windows
	timed   atomic.Uint64 // windows the weighted sum stands for
	endAt   atomic.Int64  // newest window close (UnixNano), estimated for untimed windows; noTime if unknown
	idle    atomic.Int64  // stage idle nanos banked by this slot's Begins
	first   atomic.Int64  // first stamped Begin (UnixNano); noTime if none
	dead    atomic.Bool   // abandoned by the stall watchdog: siblings and the fold skip it
	stamped bool          // owner-private: first has been stored

	// Owner-private bookkeeping, never read by another goroutine.
	iters   uint64 // shadow of state>>1
	pending uint64 // untimed windows since the last timed one
	est     int64  // newest timed window's duration, to estimate untimed closes
	lastEnd int64  // shadow of endAt
	// scanAfter is when a Begin must take the slow path: idleScanGap past
	// the newest known close, math.MinInt64 before the first stamped Begin,
	// math.MaxInt64 while the newest close is unknown.
	scanAfter int64

	// Fold watermarks, owned by the consumer under s.mu.
	foldedIters uint64
	foldedTimed uint64
	foldedExec  int64
	foldedIdle  int64

	_ [56]byte // round the struct up to three cache lines
}

// NewSlotRecorder registers and returns a fresh accumulator for one worker
// slot. The caller must Release it when the slot's attempt ends so the
// final partial batch is folded and the slot stops being scanned.
func (s *StageStats) NewSlotRecorder() *SlotRecorder {
	rec := &SlotRecorder{s: s, lastEnd: noTime, scanAfter: math.MinInt64}
	rec.endAt.Store(noTime)
	rec.first.Store(noTime)
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.publishLocked()
	s.mu.Unlock()
	return rec
}

// publishLocked republishes the recorder list for lock-free readers.
func (s *StageStats) publishLocked() {
	live := append([]*SlotRecorder(nil), s.recs...)
	s.live.Store(&live)
}

// Release folds the recorder's remaining accumulation and unregisters it.
// Its newest close stays on record at stage level, so a later Begin can
// tell when the stage last worked.
func (rec *SlotRecorder) Release() {
	s := rec.s
	s.mu.Lock()
	s.foldLocked()
	if e := rec.endAt.Load(); !rec.dead.Load() && e > s.releasedEnd.Load() {
		s.releasedEnd.Store(e)
	}
	for i, r := range s.recs {
		if r == rec {
			s.recs = append(s.recs[:i], s.recs[i+1:]...)
			break
		}
	}
	s.publishLocked()
	s.mu.Unlock()
}

// Slots returns how many slots the stage has registered. With more than
// one, stage idle time depends on every slot's Begin times, so each Begin
// must be stamped; a lone slot's idle time is everything outside its
// windows, which needs no Begin stamp at all. The fold also pools every
// slot's timed windows into one estimate, so each slot needs to time only
// its share of the samples a tick wants.
func (rec *SlotRecorder) Slots() int {
	return len(*rec.s.live.Load())
}

// ObserveBegin records that the slot's worker opened a Begin/End window at
// now (UnixNano). After a gap of at least idleScanGap it checks whether
// every sibling slot is closed too; if so, the stage was idle from the
// newest close among all slots until now, and the slot banks that stretch
// for the next completion's rate gap. Lock-free, and writes only the slot's
// own lines.
func (rec *SlotRecorder) ObserveBegin(nowNanos int64) {
	rec.state.Store(rec.iters<<1 | 1) // before reading siblings: see bankIdle
	if nowNanos >= rec.scanAfter {
		rec.beginSlow(nowNanos)
	}
}

// beginSlow is ObserveBegin's rare part, split out so the common case
// inlines: the slot's first stamped Begin, and a Begin that ends a long gap.
// The first stamped Begin always checks for idleness: the slot has no close
// of its own to measure a gap from, but its siblings, live or released, may.
func (rec *SlotRecorder) beginSlow(nowNanos int64) {
	if !rec.stamped {
		rec.stamped = true
		rec.first.Store(nowNanos)
		rec.bankIdle(nowNanos)
	} else if rec.lastEnd != noTime && nowNanos-rec.lastEnd >= idleScanGap {
		rec.bankIdle(nowNanos)
	}
	rec.scanAfter = math.MaxInt64 // until the next close
}

// ObserveBeginUntimed records a window opened without a clock read: the
// slot is working, and the window will close through ObserveEndUntimed.
func (rec *SlotRecorder) ObserveBeginUntimed() {
	rec.state.Store(rec.iters<<1 | 1)
}

// bankIdle banks the stage-wide idle stretch that this Begin ends, if any.
// Every slot stores its open state before reading its siblings' (both
// sequentially consistent), so of two Begins racing out of one idle
// stretch at least one sees the other open: the stretch is banked at most
// once. The stretch starts at the newest close among the live slots and the
// released ones; releasedEnd is read after the live list, and Release
// stores it before republishing that list, so a slot is always seen in one
// or the other.
func (rec *SlotRecorder) bankIdle(nowNanos int64) {
	newest := int64(noTime)
	for _, r := range *rec.s.live.Load() {
		if r.dead.Load() {
			continue
		}
		if r != rec && r.state.Load()&1 != 0 {
			return // a sibling is working: the stage was not idle
		}
		if e := r.endAt.Load(); e > newest {
			newest = e
		}
	}
	newest = max(newest, rec.s.releasedEnd.Load())
	if newest != noTime && nowNanos > newest {
		rec.idle.Add(nowNanos - newest)
	}
}

// ObserveEnd records one completed, timed Begin..End section of dur
// nanoseconds ending at now (UnixNano). It stands for itself and for the
// untimed windows closed since the slot's previous timed one.
func (rec *SlotRecorder) ObserveEnd(durNanos, nowNanos int64) {
	w := rec.pending + 1
	rec.pending = 0
	rec.execSum.Add(durNanos * int64(w))
	rec.timed.Add(w)
	rec.est = durNanos
	rec.setEnd(nowNanos)
	rec.iters++
	rec.state.Store(rec.iters << 1)
}

// ObserveEndUntimed records one completed section that was not timed and
// began at begin (UnixNano, or NoStamp when the Begin skipped the clock).
// Its close is estimated as the stamped Begin plus the newest timed
// duration, and unknown without a stamp.
func (rec *SlotRecorder) ObserveEndUntimed(beginNanos int64) {
	rec.pending++
	end := int64(noTime)
	if beginNanos != NoStamp {
		end = beginNanos + rec.est
	}
	rec.setEnd(end)
	rec.iters++
	rec.state.Store(rec.iters << 1)
}

func (rec *SlotRecorder) setEnd(end int64) {
	if end != rec.lastEnd {
		rec.lastEnd = end
		rec.endAt.Store(end)
		rec.scanAfter = math.MaxInt64
		if end != noTime {
			rec.scanAfter = end + idleScanGap
		}
	}
}

// foldLocked drains every live slot accumulator into the durable aggregate.
// Callers hold s.mu. The batch of k new completions updates the EWMAs as k
// observations of the batch mean (see stats.EWMA.ObserveBatch): for k == 1
// — every fold triggered by a getter right after a completion — this is
// bit-for-bit the per-iteration update; for larger batches it is the same
// estimator at tick granularity.
//
// The rate observation divides the completions by the stage's working time,
// the wall time during which at least one window was open. With one slot
// that is the slot's own CPU-section time, so the rate is the reciprocal of
// the batch's mean section. With several, it is the gap since the previous
// folded completion minus the stage idle time the slots banked
// (ObserveBegin), as it was when the stage kept one shared open count.
func (s *StageStats) foldLocked() {
	var k, timed uint64
	var execDelta int64
	last, first := int64(noTime), int64(noTime)
	slots := 0
	for _, rec := range s.recs {
		it := rec.state.Load() >> 1 // before the rest: see SlotRecorder ordering
		if d := it - rec.foldedIters; d > 0 {
			rec.foldedIters = it
			k += d
		}
		if t := rec.timed.Load(); t != rec.foldedTimed {
			timed += t - rec.foldedTimed
			rec.foldedTimed = t
		}
		if ex := rec.execSum.Load(); ex != rec.foldedExec {
			execDelta += ex - rec.foldedExec
			rec.foldedExec = ex
		}
		if id := rec.idle.Load(); id != rec.foldedIdle {
			s.idleBank += id - rec.foldedIdle
			rec.foldedIdle = id
		}
		if rec.dead.Load() {
			continue
		}
		slots++
		last = max(last, rec.endAt.Load())
		if f := rec.first.Load(); f != noTime && (first == noTime || f < first) {
			first = f
		}
	}
	execSec := float64(execDelta) / 1e9
	s.execSum += execSec
	s.timed += timed
	if timed > 0 {
		s.execTime.ObserveBatch(execSec/float64(timed), timed)
	}
	if k == 0 {
		return
	}
	s.iterations += k
	s.consecFail = 0
	if slots <= 1 {
		if timed > 0 && execSec > 0 {
			s.rate.ObserveBatch(float64(timed)/execSec, timed)
		}
	} else {
		origin := s.lastAtNanos
		if origin == noTime {
			// First fold since (re)start: anchor the gap at the first window
			// open, so the first batch yields a real rate observation instead
			// of only seeding the gap state.
			origin = first
		}
		if origin != noTime && last != noTime {
			if gap := float64(last-origin-s.idleBank) / 1e9; gap > 0 {
				s.rate.ObserveBatch(float64(k)/gap, k)
			}
		}
	}
	s.idleBank = 0
	if last > s.lastAtNanos {
		s.lastAtNanos = last
	}
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
// of deriving a gap from before the pause. Recorders still registered
// belong to abandoned slots, whose idle banks are dropped and whose first
// stamps no longer anchor anything; a slot started later anchors the next
// gap with its own first stamped Begin.
func (s *StageStats) resetGapLocked() {
	s.lastAtNanos = noTime
	s.idleBank = 0
	s.releasedEnd.Store(noTime)
	for _, rec := range s.recs {
		rec.foldedIdle = rec.idle.Load()
		rec.first.Store(noTime)
	}
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

// ObserveAbandon records that the watchdog abandoned a stalled worker slot
// whose current recorder is rec (nil for none): the live gauge drops (the
// slot no longer counts toward the stage's capacity) and the zombie gauge
// rises until the stuck goroutine, if it ever unblocks, exits. The slot's
// window was open (that is what stalled) and its late End stays invisible
// to the monitors, so the recorder is marked dead: siblings stop waiting
// for it to close before they bank stage idle time, and the fold stops
// reading its close time. As with ObserveWorkerExit, the gap state is
// cleared when the stage goes idle.
func (s *StageStats) ObserveAbandon(rec *SlotRecorder) {
	s.mu.Lock()
	if rec != nil {
		rec.dead.Store(true)
	}
	s.foldLocked()
	if s.workers > 0 {
		s.workers--
	}
	s.zombies++
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
	if s.timed > 0 {
		snap.MeanExecTime = s.execSum / float64(s.timed)
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
