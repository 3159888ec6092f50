// Package queue provides the concurrent FIFO queues that connect DoPE tasks.
//
// In the paper, adjacent pipeline stages communicate through work queues and
// each task's LoadCB reports the occupancy of its in-queue (Figure 7,
// TranscodeLoadCB et al.). Reconfiguration drains pipelines by propagating a
// sentinel through these queues (the ReadFiniCB/TransformFiniCB pattern).
// This package reproduces those semantics:
//
//   - blocking Enqueue/Dequeue with optional capacity bound,
//   - DequeueUntil, a Dequeue that also gives up when a done channel
//     closes: how a task waits for work and still sees a reconfiguration
//     at once (it passes Worker.Done), with no polling,
//   - O(1) Len usable as a LoadCB without taking the queue lock contended by
//     producers and consumers (an atomic occupancy counter),
//   - Close, which wakes all blocked consumers — the moral equivalent of the
//     sentinel NULL token, but race-free for multi-consumer stages,
//   - occupancy statistics (peak, enqueue/dequeue counts) for the monitors.
package queue

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/stats"
)

// sojournAlpha smooths the queue-sojourn EWMA. Sojourn is a per-item signal
// read at control-tick granularity, so it smooths a little harder than the
// monitor's default.
const sojournAlpha = 0.2

// ErrClosed is returned by Enqueue on a closed queue and by Dequeue once a
// closed queue is fully drained.
var ErrClosed = errors.New("queue: closed")

// ErrShed is returned by Enqueue on a full ShedNewest queue: the offered
// item was dropped (and counted) instead of blocking the producer. It is an
// overload signal, not a failure; producers typically keep going.
var ErrShed = errors.New("queue: item shed")

// OverloadPolicy selects what a bounded queue does when an enqueue arrives
// while it is full. Block is the paper's behavior — backpressure propagates
// upstream through the blocked producer. The shed policies trade work for
// latency: the queue never blocks a producer, so under sustained overload
// the stage's sojourn time stays bounded by capacity/service-rate while the
// shed counter records the deficit.
type OverloadPolicy int

const (
	// Block makes Enqueue wait for space (the default; backpressure).
	Block OverloadPolicy = iota
	// ShedOldest drops the queue head to admit the new item — freshest-work
	// wins, fitting servers where stale requests have already timed out
	// upstream.
	ShedOldest
	// ShedNewest drops the offered item — admitted work is never wasted,
	// fitting pipelines where upstream stages have already invested in the
	// queued items.
	ShedNewest
)

// String returns the policy's conventional name.
func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case ShedOldest:
		return "shed-oldest"
	case ShedNewest:
		return "shed-newest"
	default:
		return "invalid"
	}
}

// Queue is a FIFO of items of type T, safe for any number of concurrent
// producers and consumers. A capacity of 0 means unbounded.
//
// Items live in one power-of-two ring of cells indexed by two counters that
// only ever grow: head counts cells taken off the front (served or shed),
// tail counts cells pushed, and cell i sits at ring[i&(len(ring)-1)]. A
// bounded queue's ring is allocated once, at construction; an unbounded
// queue's ring doubles when a push finds it full and never shrinks. Under
// q.mu a hand-off is index arithmetic, one atomic occupancy store and the
// condition-variable signal; see DESIGN.md, "Queue hand-off path".
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	ring     []cell[T]
	head     uint64
	tail     uint64 // also the count of successful enqueues
	dequeued uint64
	limit    uint64 // capacity; MaxUint64 when unbounded
	policy   OverloadPolicy
	closed   bool
	// wakeCh, when non-nil, is closed to wake DequeueUntil/DequeueWhile
	// waiters on enqueue/close. It is created lazily by the first waiter so
	// queues without such consumers pay nothing per enqueue.
	//
	// Wakeup audit: every path that makes an item (or closure) observable —
	// pushLocked, which Enqueue and the shed-oldest swap both go through,
	// and Close — must call wakeLocked before releasing q.mu. A
	// DequeueUntil waiter has no timer to fall back on, so a missed wakeup
	// there parks it until its done channel closes; a DequeueWhile waiter
	// sleeps a full poll period. Dequeue-side transitions (occupancy
	// dropping) deliberately do not wake: waiters wait for items, and
	// predicates that watch occupancy fall are served by the poll timeout.
	// TestBoundedEnqueueWakesDequeueWhile and
	// TestDequeueUntilWakesOnBoundedEnqueue are the regression tests for
	// the enqueue side.
	wakeCh chan struct{}

	// Sojourn tracking: a stamped cell carries its enqueue time and its
	// dequeue folds the wait into the EWMA. Shed items — the head dropped by
	// ShedOldest, the newcomer refused by ShedNewest — are deliberately NOT
	// folded: they never received service, and counting their waits would
	// let survivorship skew the estimate the what-if profiler reads (under
	// shed-oldest the longest waiters are exactly the ones dropped, so
	// folding them would overstate the sojourn of the work that actually
	// flowed — and folding the refused newcomers' zero waits would
	// understate it).
	//
	// Only every stride-th push is stamped; the rest carry unstamped and
	// cost no clock read on either side. stride adapts to the gap between
	// consecutive stamps (see stampLocked), so it is 1 — every item
	// stamped — on any queue whose items arrive at least 100 µs apart
	// (up to ~10 k items/s). nowFn, when a test sets it, replaces the
	// clock.
	stride    uint32
	skip      uint32 // pushes left before the next stamp
	lastStamp int64  // unstamped until the first stamp
	nowFn     func() int64
	sojourn   stats.EWMA

	occupancy atomic.Int64 // mirrors tail-head for lock-free Len
	shed      atomic.Uint64
	peak      atomic.Int64
}

// cell is one ring slot: an item and its enqueue time, or unstamped.
type cell[T any] struct {
	item  T
	stamp int64
}

const (
	// unstamped marks a cell the sojourn sampler skipped.
	unstamped = math.MinInt64
	// maxStride bounds how sparse stamping gets: at most 63 in 64 items go
	// unstamped, however hot the queue.
	maxStride = 64
	// A stamp closer than strideUpGap to the previous one doubles the
	// stride, one further than strideDownGap halves it. Between them the
	// stride holds, so a steady stream settles instead of oscillating.
	strideUpGap   = int64(100 * time.Microsecond)
	strideDownGap = int64(400 * time.Microsecond)
	// minRing is an unbounded queue's first allocation, in cells.
	minRing = 8
)

// epoch anchors the queues' default clock. Stamps are only ever subtracted
// from one another, so time.Since (one monotonic read) replaces time.Now
// (a wall and a monotonic read).
var epoch = time.Now()

// New returns an empty queue. capacity <= 0 means unbounded.
func New[T any](capacity int) *Queue[T] {
	return NewWithPolicy[T](capacity, Block)
}

// NewWithPolicy returns an empty queue with the given overload policy. The
// policy only matters for bounded queues; an unbounded queue never sheds.
func NewWithPolicy[T any](capacity int, policy OverloadPolicy) *Queue[T] {
	q := &Queue[T]{
		limit:     math.MaxUint64,
		policy:    policy,
		stride:    1,
		lastStamp: unstamped,
		sojourn:   *stats.NewEWMA(sojournAlpha),
	}
	if capacity > 0 {
		q.limit = uint64(capacity)
		q.ring = make([]cell[T], 1<<bits.Len(uint(capacity-1)))
	}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// Policy returns the queue's overload policy.
func (q *Queue[T]) Policy() OverloadPolicy { return q.policy }

// Enqueue appends item. On a full bounded queue the overload policy
// decides: Block waits for space (returning ErrClosed if the queue closes
// while waiting), ShedOldest drops the queue head to admit the item, and
// ShedNewest drops the offered item and returns ErrShed.
func (q *Queue[T]) Enqueue(item T) error {
	q.mu.Lock()
	if q.policy == Block {
		for q.tail-q.head >= q.limit && !q.closed {
			q.notFull.Wait()
		}
	}
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if q.tail-q.head >= q.limit {
		q.shed.Add(1)
		if q.policy == ShedNewest {
			q.mu.Unlock()
			return ErrShed
		}
		// ShedOldest: drop the head without folding its stamp into the
		// sojourn EWMA — a shed item was never served, and its (maximal)
		// wait would skew the survivor estimate. See the sojourn field doc.
		*q.cellLocked(q.head) = cell[T]{}
		q.head++
	}
	q.pushLocked(item)
	q.mu.Unlock()
	return nil
}

// pushLocked writes item into the cell at tail, publishes the new
// occupancy and wakes one blocked consumer and every DequeueUntil and
// DequeueWhile waiter.
// Callers hold q.mu and have made sure the queue is below its limit.
func (q *Queue[T]) pushLocked(item T) {
	if q.tail-q.head == uint64(len(q.ring)) {
		q.growLocked()
	}
	c := q.cellLocked(q.tail)
	c.item, c.stamp = item, q.stampLocked()
	q.tail++
	n := int64(q.tail - q.head)
	q.occupancy.Store(n)
	if n > q.peak.Load() { // q.mu serializes writers: no CAS needed
		q.peak.Store(n)
	}
	q.notEmpty.Signal()
	q.wakeLocked()
}

// cellLocked returns the ring slot of cell i. Callers hold q.mu.
func (q *Queue[T]) cellLocked(i uint64) *cell[T] {
	return &q.ring[i&uint64(len(q.ring)-1)]
}

// growLocked doubles a full unbounded ring, keeping every cell at the slot
// its index maps to under the new mask. Callers hold q.mu.
func (q *Queue[T]) growLocked() {
	grown := make([]cell[T], max(2*len(q.ring), minRing))
	for i := q.head; i != q.tail; i++ {
		grown[i&uint64(len(grown)-1)] = q.ring[i&uint64(len(q.ring)-1)]
	}
	q.ring = grown
}

// stampLocked returns the enqueue time for the cell being pushed, or
// unstamped for the stride-1 pushes out of every stride that the sampler
// skips. On each stamp it compares the gap since the previous stamp with
// the two thresholds and doubles or halves the stride, so the clock is read
// about once per 100–400 µs on a hot queue and on every push on a slow one,
// with no clock read beyond the stamps themselves. Callers hold q.mu.
func (q *Queue[T]) stampLocked() int64 {
	if q.skip > 0 {
		q.skip--
		return unstamped
	}
	now := q.nowNanosLocked()
	if q.lastStamp != unstamped {
		switch gap := now - q.lastStamp; {
		case gap < strideUpGap && q.stride < maxStride:
			q.stride *= 2
		case gap > strideDownGap && q.stride > 1:
			q.stride /= 2
		}
	}
	q.lastStamp = now
	q.skip = q.stride - 1
	return now
}

// wakeLocked wakes all DequeueUntil and DequeueWhile waiters. Called with
// q.mu held.
func (q *Queue[T]) wakeLocked() {
	if q.wakeCh != nil {
		close(q.wakeCh)
		q.wakeCh = nil
	}
}

// Dequeue removes and returns the oldest item, blocking while the queue is
// empty. Once the queue is closed and drained it returns ErrClosed.
func (q *Queue[T]) Dequeue() (T, error) {
	q.mu.Lock()
	for q.head == q.tail && !q.closed {
		q.notEmpty.Wait()
	}
	if q.head == q.tail { // closed and drained
		q.mu.Unlock()
		var zero T
		return zero, ErrClosed
	}
	item := q.popLocked()
	q.mu.Unlock()
	return item, nil
}

// popLocked takes the head cell for service: clears it (so the ring does
// not pin the item for the GC), folds its wait into the sojourn EWMA if it
// was stamped, publishes the new occupancy and wakes one blocked producer.
// Callers hold q.mu and have made sure the queue is not empty.
func (q *Queue[T]) popLocked() T {
	c := q.cellLocked(q.head)
	item, stamp := c.item, c.stamp
	*c = cell[T]{}
	if stamp != unstamped {
		q.sojourn.Observe(float64(max(q.nowNanosLocked()-stamp, 0)) / 1e9)
	}
	q.head++
	q.dequeued++
	q.occupancy.Store(int64(q.tail - q.head))
	q.notFull.Signal()
	return item
}

// DequeueUntil dequeues like Dequeue but gives up once done is closed.
// While the queue is empty it blocks on the enqueue/close wakeup channel
// and on done together, with no timer: the caller is woken by an item, by
// Close, or by done, and by nothing else. An item already present is
// returned even when done is closed, so a claimed-or-not decision is never
// lost to a race with cancellation. A nil done never closes, which makes
// DequeueUntil behave like Dequeue. The bool reports whether an item was
// returned; err is ErrClosed when the queue is closed and drained. DoPE
// task functors pass Worker.Done() so an idle task observes a
// reconfiguration the moment the executive requests it.
func (q *Queue[T]) DequeueUntil(done <-chan struct{}) (T, bool, error) {
	return q.wait(done, nil, 0)
}

// DequeueWhile is the polling form of DequeueUntil, for callers whose stop
// condition is a predicate rather than a channel: it gives up when
// keepWaiting returns false, which it re-checks every poll (default 1 ms)
// while the queue stays empty. Items and Close still wake it at once.
func (q *Queue[T]) DequeueWhile(keepWaiting func() bool, poll time.Duration) (T, bool, error) {
	if poll <= 0 {
		poll = time.Millisecond
	}
	return q.wait(nil, keepWaiting, poll)
}

// wait is the one wait loop behind DequeueUntil and DequeueWhile. Each
// round takes one locked step — take an item, or see the closure, or
// register for the next wakeup — and then parks on the wakeup, done and,
// when keepWaiting is set, a poll-period timer after which it re-checks the
// predicate.
func (q *Queue[T]) wait(done <-chan struct{}, keepWaiting func() bool, poll time.Duration) (T, bool, error) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// Registering under the same lock hold that saw the queue empty is
		// what makes the wakeup unmissable.
		q.mu.Lock()
		if q.head != q.tail {
			item := q.popLocked()
			q.mu.Unlock()
			return item, true, nil
		}
		var zero T
		if q.closed {
			q.mu.Unlock()
			return zero, false, ErrClosed
		}
		if q.wakeCh == nil {
			q.wakeCh = make(chan struct{})
		}
		wake := q.wakeCh
		q.mu.Unlock()

		var tick <-chan time.Time
		if keepWaiting != nil {
			if !keepWaiting() { // caller's code: never under q.mu
				return zero, false, nil
			}
			if timer == nil {
				timer = time.NewTimer(poll)
			} else {
				timer.Reset(poll)
			}
			tick = timer.C
		}
		select {
		case <-wake:
			if timer != nil && !timer.Stop() {
				<-timer.C
			}
		case <-done:
			return zero, false, nil
		case <-tick:
		}
	}
}

// Close marks the queue closed. Blocked producers fail with ErrClosed;
// consumers drain remaining items and then receive ErrClosed. Closing twice
// is harmless.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.wakeLocked()
	q.mu.Unlock()
}

// Reopen clears the closed flag so the queue can be reused after a DoPE
// reconfiguration (the InitCB path). Items still in the queue are preserved.
func (q *Queue[T]) Reopen() {
	q.mu.Lock()
	q.closed = false
	q.mu.Unlock()
}

// Len returns the instantaneous occupancy without locking; it is the
// intended implementation for a task's LoadCB.
func (q *Queue[T]) Len() int { return int(q.occupancy.Load()) }

// Peak returns the highest occupancy ever observed.
func (q *Queue[T]) Peak() int { return int(q.peak.Load()) }

// Shed returns the total number of items dropped by the overload policy.
func (q *Queue[T]) Shed() uint64 { return q.shed.Load() }

// nowNanosLocked reads the queue's clock. Callers hold q.mu (tests set nowFn
// before the queue is shared).
func (q *Queue[T]) nowNanosLocked() int64 {
	if q.nowFn != nil {
		return q.nowFn()
	}
	return int64(time.Since(epoch))
}

// MeanSojourn returns the smoothed queue wait in seconds of items that were
// actually dequeued for service. Items dropped by a shed policy do not
// contribute: under shed-oldest the longest waiters are exactly the dropped
// ones, and folding them in would overstate the sojourn of the surviving
// flow (and hence the apparent payoff of speeding up an overloaded stage).
// On a hot queue the mean is over the stamped sample of items, not all of
// them. Returns 0 before the first dequeue.
func (q *Queue[T]) MeanSojourn() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sojourn.Value()
}
