package core

import "dope/internal/monitor"

// Worker is the execution context handed to a Functor. It provides the
// paper's Task methods: Begin/End delimit the CPU-intensive section (Table
// 2), and RunNest runs a nested loop for the current work item and waits
// for it (Task::wait).
//
// A Worker is owned by exactly one goroutine; it must not escape the
// functor invocation.
type Worker struct {
	exec *Exec
	run  *run
	key  monitor.Key
	path []string
	// top is true for workers of the root loop; only they observe a
	// whole-run suspension, because nested instances always drain naturally
	// with their parent's current work item. Slot retirement (an in-place
	// shrink) is observed at every level.
	top   bool
	slot  int
	item  any
	group *workerGroup
	gslot *groupSlot
	// windowed caches group.windowed (whether any patrol can ever abandon
	// this group's slots); false for hand-built Workers, whose Begin/End
	// never interact with the watchdog anyway.
	windowed bool
	// rec is this worker's private monitor accumulator (one per attempt).
	rec *monitor.SlotRecorder

	holding bool
	// beginNanos is the open CPU section's start in unix nanoseconds, read
	// from exec.nowNanos (the monotonic fast path), or monitor.NoStamp when
	// Begin skipped the clock.
	beginNanos int64
	// timed says the open section is timed: End reads the clock and reports
	// its duration. samp decides which sections are (sampling.go).
	timed bool
	samp  sampler
	// began tracks an open Begin/End protocol window (set by every Begin,
	// including one that returned Suspended without claiming a context,
	// since drain stages may still work and End before propagating). Only
	// consulted by the misuse detector (WithProtocolCheck / DOPE_DEBUG=1).
	began bool
	// counted reports whether the current Begin registered its invocation
	// window with the slot (false once the stall watchdog has abandoned the
	// slot — the iteration must then stay invisible to the monitors).
	counted bool
}

// violation panics with a protocol-violation message. The worker loop
// recovers it, balances the CPU section, and surfaces it as the run error.
func violation(msg string) {
	panic("dope: protocol violation: " + msg)
}

// Slot returns this worker's id within its stage's worker group. In steady
// state ids lie in [0, extent); while a grow overlaps a still-draining
// shrink, a fresh worker may briefly carry an id at or above the extent
// rather than share one with a retiring worker. Useful for DOALL stages
// that partition an index space.
func (w *Worker) Slot() int { return w.slot }

// Item returns the work item the enclosing nested loop was instantiated
// for, or nil at the root.
func (w *Worker) Item() any { return w.item }

// Extent returns the DoP extent this worker's stage is currently configured
// for. With in-place resizing this is live: it tracks the group's target
// across reconfigurations rather than the value the worker was spawned
// with.
func (w *Worker) Extent() int { return w.group.Target() }

// Suspending reports whether the executive needs this worker to stop: its
// run is suspending for an alternative switch or Stop, or its slot was
// retired by an in-place shrink or abandoned by the stall watchdog. It is a
// flag to check, not to wait on: a functor that blocks for work outside
// Begin/End (e.g. on a queue) waits on Done instead, typically via
// queue.DequeueUntil(w.Done()), and Done is closed whenever Suspending can
// turn true.
func (w *Worker) Suspending() bool {
	if w.gslot != nil && w.gslot.retiring() {
		return true
	}
	return w.top && w.run.suspending()
}

// Begin signals that the CPU-intensive part of the task is starting. It
// claims a hardware context and starts the execution timer. If the
// executive needs the worker to stop (run suspension or slot retirement),
// Begin returns Suspended without claiming a context and the functor should
// return Suspended at once.
func (w *Worker) Begin() Status {
	e := w.exec
	if e.protocolCheck && w.began {
		violation("Worker.Begin while the previous Begin/End section is still open (double Begin)")
	}
	w.began = true
	if w.Suspending() {
		return Suspended
	}
	e.contexts.Acquire()
	w.holding = true
	w.timed = w.samp.skip == 0
	// The clock is read when the section is timed, when the watchdog needs
	// the window's start, and when the stage has sibling slots, whose stage
	// idle accounting needs every Begin's time (monitor.SlotRecorder.Slots).
	if w.timed || w.windowed || w.rec.Slots() > 1 {
		w.beginNanos = e.nowNanos()
	} else {
		w.beginNanos = monitor.NoStamp
	}
	// Open the invocation window the stall watchdog patrols. A slot
	// abandoned between the Suspending check and here refuses the window;
	// the worker then still owns the token (the watchdog had nothing to
	// reclaim) and End releases it without observing the iteration. A group
	// no patrol can ever visit (windowed == false) skips the window CAS:
	// abandonment is impossible there, so counted is trivially true.
	w.counted = !w.windowed || w.gslot == nil || w.gslot.openWindow(w.beginNanos)
	if w.counted {
		// Tell the monitors the stage is working again, so the idle wait
		// that just ended is excluded from the rate's next gap.
		if w.beginNanos == monitor.NoStamp {
			w.rec.ObserveBeginUntimed()
		} else {
			w.rec.ObserveBegin(w.beginNanos)
		}
	}
	return Executing
}

// End signals that the CPU-intensive part has ended: the context is
// released and the elapsed time is recorded for the monitors. Like Begin it
// reports Suspended when the worker should stop.
func (w *Worker) End() Status {
	e := w.exec
	if e.protocolCheck && !w.began {
		violation("Worker.End without a matching Worker.Begin")
	}
	w.began = false
	if w.holding {
		release, observe := true, w.counted
		if w.windowed && w.counted && w.gslot != nil {
			// Close the watchdog window; if the slot was abandoned while it
			// was open, the watchdog already released the token and told the
			// monitors the slot is gone, so this (late) End must do neither.
			release, observe = w.gslot.closeWindow()
		}
		w.holding = false
		if observe {
			if w.timed {
				now := e.nowNanos()
				dur := sectionNanos(now, w.beginNanos)
				w.rec.ObserveEnd(dur, now)
				w.samp.timedEnd(dur, now, e.interval, w.rec.Slots())
			} else {
				w.rec.ObserveEndUntimed(w.beginNanos)
				w.samp.untimedEnd()
			}
		}
		if release {
			e.contexts.Release()
		}
	}
	if w.Suspending() {
		return Suspended
	}
	return Executing
}

// sectionNanos is the length of a section from begin to now, clamped to
// zero: a virtual clock may step backwards between Begin and End, and a
// negative duration must never reach the monitors' sums.
func sectionNanos(now, begin int64) int64 {
	if d := now - begin; d > 0 {
		return d
	}
	return 0
}

// Done returns a channel closed when the executive no longer wants this
// worker's slot to keep working: the slot was retired by a shrink,
// abandoned by the stall watchdog after a deadline overrun, or its run
// began suspending for a reconfiguration or Stop. It is the wake-up signal
// for every idle wait: the executive closes it on each path that can make
// Suspending true (Exec.suspend raises the run's flag and then cancels
// every top-level slot, a shrink or abandonment retires the slot and then
// cancels it, and a slot spawned into a suspending run is born cancelled),
// so a functor blocked in queue.DequeueUntil(w.Done()) or a select on it
// needs no timer to notice a reconfiguration. Functors of deadlined stages
// should also select on it inside long loops so a cancelled invocation
// stops cooperatively instead of leaking its goroutine. Nil for
// hand-built Workers, whose waits then never end on cancellation.
func (w *Worker) Done() <-chan struct{} {
	if w.gslot == nil {
		return nil
	}
	return w.gslot.cancelCh
}

// Context returns the slot's cooperative cancellation handle, suitable for
// passing down into application code that should not see the full Worker.
func (w *Worker) Context() *TaskContext {
	return &TaskContext{done: w.Done()}
}

// RunNest instantiates the nested loop spec for item under the current
// configuration, runs it to completion, and returns the master stage's
// final status (Finished on natural completion). When this worker must stop
// — its run is suspending, or its slot was retired by a shrink — RunNest
// reports Suspended after the nested loop has drained, so no work is lost.
//
// The stage must have declared spec in its StageSpec.Nest; undeclared nests
// still run but adapt only with default configuration.
func (w *Worker) RunNest(spec *NestSpec, item any) (Status, error) {
	if w.exec.protocolCheck && w.holding {
		violation("Worker.RunNest while holding a platform context (close the Begin/End section first)")
	}
	childPath := append(append([]string(nil), w.path...), spec.Name)
	st, err := w.exec.runNest(w.run, spec, childPath, item, false)
	if err != nil {
		return st, err
	}
	if w.Suspending() {
		return Suspended, nil
	}
	return st, nil
}
