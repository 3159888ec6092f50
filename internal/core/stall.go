package core

import (
	"fmt"
	"runtime"
	"time"

	"dope/internal/monitor"
)

// This file is the executive's stall-tolerance layer. The reconfiguration
// protocol (exec.go) is only safe against tasks that return: a run ends
// when every stage's worker group has drained, so one functor stuck in an
// infinite loop or blocked on I/O would hang Stop and Wait forever, and
// every alternative switch after the next. Two watchdogs close that hole:
//
//   - the invocation watchdog arms a per-invocation deadline on the
//     Begin..End CPU section of deadlined stages (StageSpec.Deadline or the
//     executive-wide WithDeadline) and treats an overrun as a stall,
//   - the drain watchdog bounds how long a suspension may take to drain
//     (WithDrainTimeout) and, on expiry, treats every still-live slot as
//     stalled.
//
// A stall is handled by the stage's FailurePolicy, like a panic: FailStop
// surfaces a run error carrying the stage key and a full goroutine dump (so
// the stuck frame is attributable), FailRestart abandons the slot and
// spawns a fresh one, FailDegrade abandons it and shrinks the extent. An
// abandoned slot's goroutine cannot be killed in Go; it leaks by design
// until (if ever) it unblocks, but it is fenced off: its platform context
// is reclaimed, its late End neither releases a second token nor perturbs
// the monitors, and its late Begin refuses work. Cooperative functors watch
// Worker.Done() and unblock promptly instead.

// WithDeadline sets the executive-wide default invocation deadline applied
// to every stage whose spec leaves Deadline zero. Zero or negative leaves
// stages without a deadline.
func WithDeadline(d time.Duration) Option {
	return func(e *Exec) {
		if d > 0 {
			e.deadline = d
		}
	}
}

// WithDrainTimeout bounds how long a suspension (reconfiguration or Stop)
// may wait for the running tasks to drain. On expiry the watchdog treats
// every still-live worker slot as stalled and escalates per the stage's
// failure policy, so Wait returns instead of hanging on a stuck task. Zero
// (the default) waits forever, the paper's original semantics.
func WithDrainTimeout(d time.Duration) Option {
	return func(e *Exec) {
		if d > 0 {
			e.drainTimeout = d
		}
	}
}

// WithStallCheckInterval overrides the watchdog's patrol interval. By
// default it is derived from the configured deadlines (a quarter of the
// shortest, clamped to [100µs, 25ms]), which bounds detection latency to
// ~1.25× the deadline.
func WithStallCheckInterval(d time.Duration) Option {
	return func(e *Exec) {
		if d > 0 {
			e.stallCheck = d
		}
	}
}

// TaskStalls returns how many stalled invocations the watchdog has
// abandoned (under any policy, drain-time stalls included).
func (e *Exec) TaskStalls() uint64 { return e.taskStalls.Load() }

// Err returns the run error recorded so far without waiting for the
// application to end (Wait's non-blocking sibling; health endpoints poll
// it). It is nil until a task fails or stalls under FailStop.
func (e *Exec) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.runErr
}

// TaskContext is the cooperative cancellation handle of one worker slot,
// obtained from Worker.Context. Functors that loop or block inside their
// CPU section should select on Done so a deadline overrun (or a drain
// timeout) can stop them instead of leaking their goroutine.
type TaskContext struct {
	done <-chan struct{}
}

// Done returns a channel closed when the executive no longer wants the
// slot's work: the slot was retired by a shrink, abandoned by the stall
// watchdog, or its run began suspending for a reconfiguration or Stop.
func (c *TaskContext) Done() <-chan struct{} { return c.done }

// stallError renders a stalled invocation as the error that becomes the
// run error under FailStop. stack is a full goroutine dump
// (runtime.Stack(all)): the stalled goroutine cannot capture its own stack
// — it is stuck — so the watchdog captures everyone's and leaves
// attribution to the reader.
func stallError(key monitor.Key, age, deadline time.Duration, stack []byte) error {
	return fmt.Errorf("core: task %s/%s stalled: invocation ran %v, deadline %v\n%s",
		key.Nest, key.Stage, age, deadline, stack)
}

// allStacks captures every goroutine's stack.
func allStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, len(buf)*2)
	}
}

// watch registers a started worker group with the watchdog.
func (e *Exec) watch(g *workerGroup) {
	e.watchMu.Lock()
	e.watched[g] = struct{}{}
	e.watchMu.Unlock()
}

// unwatch removes a closed group from the watchdog's patrol set.
func (e *Exec) unwatch(g *workerGroup) {
	e.watchMu.Lock()
	delete(e.watched, g)
	e.watchMu.Unlock()
}

// stallInterval picks the watchdog patrol period: a quarter of the
// shortest configured deadline or drain timeout, clamped to [100µs, 25ms];
// 5ms when nothing is configured (the watchdog still patrols to publish
// shed events).
func (e *Exec) stallInterval() time.Duration {
	if e.stallCheck > 0 {
		return e.stallCheck
	}
	shortest := time.Duration(0)
	consider := func(d time.Duration) {
		if d > 0 && (shortest == 0 || d < shortest) {
			shortest = d
		}
	}
	consider(e.deadline)
	consider(e.drainTimeout)
	var walk func(n *NestSpec)
	walk = func(n *NestSpec) {
		for _, alt := range n.Alts {
			for i := range alt.Stages {
				consider(alt.Stages[i].Deadline)
				if alt.Stages[i].Nest != nil {
					walk(alt.Stages[i].Nest)
				}
			}
		}
	}
	walk(e.root)
	if shortest == 0 {
		return 5 * time.Millisecond
	}
	d := shortest / 4
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	if d > 25*time.Millisecond {
		d = 25 * time.Millisecond
	}
	return d
}

// watchdog is the stall-detection goroutine, started with the executive and
// driven by its clock (a VirtualClock drives it deterministically). It
// exits when serve does (ctrlCh closes, shared with the control loop).
func (e *Exec) watchdog() {
	defer e.loopsWG.Done()
	ticker := e.clock.NewTicker(e.stallInterval())
	defer ticker.Stop()
	for {
		select {
		case <-e.ctrlCh:
			return
		case <-ticker.C():
		}
		e.patrol()
		// Stall, shed, and failure events must not wait for the (slower)
		// control tick: a patrol that found trouble publishes it now.
		e.flushTrace()
	}
}

// patrol runs one watchdog sweep: on every watched group, the drain timeout
// if the group's own run has been suspending for longer, deadline overruns
// otherwise; then shed-counter deltas. Each group is judged against the run
// it belongs to, so a predecessor draining behind the current run is
// bounded like any other drain.
func (e *Exec) patrol() {
	now := e.clock.Now()
	e.watchMu.Lock()
	groups := make([]*workerGroup, 0, len(e.watched))
	for g := range e.watched {
		groups = append(groups, g)
	}
	e.watchMu.Unlock()
	for _, g := range groups {
		if age := g.r.drainAge(now); e.drainTimeout > 0 && age > e.drainTimeout {
			g.patrolDrain(age)
		} else {
			g.patrolDeadline(now)
		}
	}
	e.emitShedEvents()
}

// emitShedEvents publishes per-stage shed-counter growth as EventShed. The
// queues themselves only count (they must not call into the executive from
// under their lock), so the watchdog polls the monitor's cumulative totals
// and emits deltas.
func (e *Exec) emitShedEvents() {
	if !e.hasTraceConsumer() {
		return
	}
	for _, key := range e.mon.Keys() {
		total := e.mon.Shed(key)
		e.watchMu.Lock()
		last := e.shedSeen[key]
		if total > last {
			e.shedSeen[key] = total
		}
		e.watchMu.Unlock()
		if total > last {
			e.emit(Event{
				Kind: EventShed,
				Nest: key.Nest, Stage: key.Stage,
				ShedItems: total - last, ShedTotal: total,
			})
		}
	}
}
