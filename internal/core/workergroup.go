package core

import (
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/monitor"
)

// groupSlot is one worker position within a stage's worker group. A shrink
// retires a specific slot by raising its retire flag and then closing its
// cancel channel; the slot's worker observes the flag at its next
// Begin/End, or is woken out of an idle wait by the channel (Worker.Done),
// and exits after finishing the current iteration, so no work is lost.
// A slot is never un-retired: a grow that follows a shrink spawns fresh
// slots instead, which keeps the retire flag single-transition and free of
// ABA races.
type groupSlot struct {
	id     int
	retire atomic.Bool

	// cancelCh is the slot's cooperative cancellation signal, surfaced to
	// functors as Worker.Done(). It is closed (once) when the slot is
	// retired, abandoned by the stall watchdog, or its run suspends —
	// always after the flag Worker.Suspending reads is raised, so a woken
	// waiter that re-checks Suspending sees it true. Idle waits have no
	// timer behind this channel: a path that raises the flag without
	// closing it would park the worker until its queue closes.
	cancelOnce sync.Once
	cancelCh   chan struct{}

	// The invocation window brackets the worker's Begin..End CPU section
	// for the stall watchdog. Its state lives in one atomic word (winState,
	// bits below) plus the window's start time in nanoseconds, so the
	// watchdog abandoning the slot and a late End racing it settle the
	// platform-token and monitor accounting exactly once without a lock:
	// whichever CAS lands first — closeWindow clearing the open bit or the
	// watchdog setting the abandoned bit — decides who owns the token. If
	// the watchdog abandons mid-window it reclaims the token itself (the
	// reclaimed bit), and the late End neither releases a second token nor
	// observes the iteration. winStart is written before the open bit is
	// set, so a patrol that sees the bit also sees a start time no older
	// than that window's.
	winState atomic.Uint32
	winStart atomic.Int64 // UnixNano of the open window's Begin

	// rec is the monitor recorder of the slot's current attempt, so the
	// watchdog can tell the monitors which recorder an abandonment left
	// with a window that will never close.
	rec atomic.Pointer[monitor.SlotRecorder]
}

// winState bits. abandoned is single-transition (never cleared), which is
// what lets openWindow refuse a window on an abandoned slot without a lock.
const (
	winOpenBit      = 1 << iota // a Begin..End section is in flight
	winAbandonedBit             // the stall watchdog claimed this slot
	winReclaimedBit             // ... and it reclaimed the in-flight token
)

func (s *groupSlot) retiring() bool { return s.retire.Load() }

// cancel closes the slot's Done channel; idempotent.
func (s *groupSlot) cancel() {
	s.cancelOnce.Do(func() { close(s.cancelCh) })
}

// retireAndCancel retires the slot and wakes any functor blocked on Done.
func (s *groupSlot) retireAndCancel() {
	s.retire.Store(true)
	s.cancel()
}

// openWindow records that the slot's worker entered its CPU section at
// nowNanos (unix nanoseconds). It reports false when the slot was abandoned
// first — the worker then owns an unaccounted token it must release itself,
// and the iteration must not reach the monitors.
func (s *groupSlot) openWindow(nowNanos int64) bool {
	s.winStart.Store(nowNanos)
	for {
		w := s.winState.Load()
		if w&winAbandonedBit != 0 {
			return false
		}
		if s.winState.CompareAndSwap(w, w|winOpenBit) {
			return true
		}
	}
}

// closeWindow ends the CPU section and reports whether the worker should
// release the platform token and observe the iteration. Both are false
// when the watchdog abandoned the slot mid-window: it already reclaimed
// the token, and the monitors were told the slot is gone. The CAS below
// and claimStall's CAS linearize the race: the state each one read decides
// the accounting, so it settles exactly once no matter the interleaving.
func (s *groupSlot) closeWindow() (release, observe bool) {
	for {
		w := s.winState.Load()
		if s.winState.CompareAndSwap(w, w&^uint32(winOpenBit)) {
			if w&winAbandonedBit != 0 {
				return w&winReclaimedBit == 0, false
			}
			return true, true
		}
	}
}

// claimStall marks the slot abandoned and reports whether the claim won
// (false: a previous patrol already claimed it) and whether the watchdog
// must reclaim an in-flight token (the window was open at claim time, so
// the racing End lost the CAS and will not release).
func (s *groupSlot) claimStall() (claimed, reclaim bool) {
	for {
		w := s.winState.Load()
		if w&winAbandonedBit != 0 {
			return false, false
		}
		nw := w | winAbandonedBit
		if w&winOpenBit != 0 {
			nw |= winReclaimedBit
		}
		if s.winState.CompareAndSwap(w, nw) {
			return true, w&winOpenBit != 0
		}
	}
}

// workerGroup owns the worker goroutines of one stage instance. It is the
// unit of in-place reconfiguration: the executive grows a group by spawning
// slots and shrinks it by retiring them, while every other stage of the
// nest keeps flowing. Only an alternative switch (fusion ↔ pipeline) still
// suspends and drains the whole nest, behind its successor.
type workerGroup struct {
	exec   *Exec
	r      *run
	key    monitor.Key
	stats  *monitor.StageStats
	st     *StageSpec
	fns    StageFns
	path   []string
	top    bool
	item   any
	altIdx int
	idx    int // stage index within the alternative (config extent slot)

	// Failure handling, resolved from the stage spec and the executive
	// defaults at group creation (see failure.go). deadline bounds one
	// invocation's Begin..End section for the stall watchdog (stall.go);
	// zero means unwatched.
	policy   FailurePolicy
	budget   int
	window   time.Duration
	deadline time.Duration
	// windowed is false when nothing can ever patrol this group's slots —
	// no per-invocation deadline and no drain timeout — so the abandoned
	// bit can never be set and Begin/End skip the window CASes entirely.
	// Computed once at group creation from settings that cannot change
	// during the group's lifetime.
	windowed bool

	mu        sync.Mutex
	slots     []*groupSlot // live slots, including those draining a retirement
	target    int          // desired extent; slots converge toward it
	started   bool
	closed    bool        // all slots exited; resizes are no-ops from here on
	sawSusp   bool        // a non-retired slot exited with Suspended
	sawFin    bool        // a slot exited with Finished: the stage's input is exhausted
	failTimes []time.Time // failure timestamps within the rolling window
	done      chan struct{}
}

// setTarget records a desired extent before the group has started; start()
// spawns exactly the recorded target. After start it is a no-op — use
// resize.
func (g *workerGroup) setTarget(n int) {
	g.mu.Lock()
	if !g.started {
		g.target = n
	}
	g.mu.Unlock()
}

// start spawns the group's initial slots and registers the group with the
// stall watchdog. Must be called exactly once.
func (g *workerGroup) start() {
	g.exec.watch(g)
	g.mu.Lock()
	g.started = true
	g.spawnLocked(g.target)
	g.mu.Unlock()
}

// resize moves the group toward extent n in place: it retires the
// highest-id active slots on a shrink and spawns fresh slots on a grow. It
// reports the previous target and whether anything changed. Called with the
// executive's install lock held, which serializes competing resizes.
func (g *workerGroup) resize(n int) (from int, changed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	from = g.target
	if g.closed || n == g.target {
		return from, false
	}
	g.target = n
	if !g.started {
		// Spawn has not happened yet; start() will use the new target.
		return from, true
	}
	active := g.activeLocked()
	switch {
	case n < len(active):
		// Retire from the top so steady-state slot ids stay [0, extent).
		sort.Slice(active, func(i, j int) bool { return active[i].id > active[j].id })
		for _, s := range active[:len(active)-n] {
			s.retireAndCancel()
		}
	case n > len(active):
		g.spawnLocked(n - len(active))
	}
	g.stats.ObserveResize()
	return from, true
}

// activeLocked returns the slots not yet marked for retirement.
func (g *workerGroup) activeLocked() []*groupSlot {
	active := make([]*groupSlot, 0, len(g.slots))
	for _, s := range g.slots {
		if !s.retiring() {
			active = append(active, s)
		}
	}
	return active
}

// spawnLocked starts n fresh slots on the lowest ids not held by any live
// slot. Retiring slots keep their id until they exit, so a grow that
// overlaps a draining shrink briefly uses ids at or above the extent rather
// than double-booking one.
func (g *workerGroup) spawnLocked(n int) {
	used := make(map[int]bool, len(g.slots))
	for _, s := range g.slots {
		used[s.id] = true
	}
	id := 0
	for i := 0; i < n; i++ {
		for used[id] {
			id++
		}
		used[id] = true
		s := &groupSlot{id: id, cancelCh: make(chan struct{})}
		if g.r.suspending() {
			// The run began suspending between this spawn's trigger and
			// now; a slot born cancelled keeps Done() truthful for it.
			s.cancel()
		}
		g.slots = append(g.slots, s)
		g.stats.ObserveWorkerStart()
		go g.runSlot(s)
	}
}

// Target returns the extent the group is converging toward.
func (g *workerGroup) Target() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.target
}

// runSlot is one worker goroutine: it drives the stage functor until the
// stage finishes, the run suspends, this slot is retired by a shrink, or a
// functor panic is answered with a terminal policy. Under FailRestart the
// slot respawns in place — a fresh Worker on the same slot id — after the
// failure backoff.
func (g *workerGroup) runSlot(s *groupSlot) {
	defer g.slotExit(s)
	for {
		st, p, stack := g.attempt(s)
		if p == nil {
			// A retired slot exiting Suspended is just the shrink landing;
			// from a slot that was not retired it means the run (or this
			// nest instance) is suspending.
			if st == Suspended && !s.retiring() {
				g.mu.Lock()
				g.sawSusp = true
				g.mu.Unlock()
			}
			if st == Finished {
				// Recorded before the deferred slotExit removes the slot, so
				// anyone holding g.mu sees either this slot still active or
				// sawFin already set — never neither.
				g.mu.Lock()
				g.sawFin = true
				g.mu.Unlock()
			}
			return
		}
		if !g.failed(s, p, stack) {
			return
		}
	}
}

// attempt drives one spawn of the slot: a fresh Worker iterating the functor
// until a normal exit or a panic, which is recovered here — the recovery
// site — so the stack still contains the panicking frames.
func (g *workerGroup) attempt(s *groupSlot) (st Status, p any, stack []byte) {
	w := &Worker{
		exec: g.exec, run: g.r, key: g.key,
		path: g.path, top: g.top, slot: s.id, item: g.item,
		group: g, gslot: s, windowed: g.windowed,
		rec:  g.stats.NewSlotRecorder(),
		samp: newSampler(s.id),
	}
	s.rec.Store(w.rec)
	// Folds the attempt's final partial batch; runs after the recover below
	// so a panic-balancing End still lands in the accumulator.
	defer w.rec.Release()
	defer func() {
		// A panicking functor must not take down the whole process (the
		// paper's tasks are application code the runtime cannot vouch for):
		// capture the stack, balance the CPU section, and hand the failure
		// to the stage's policy.
		if r := recover(); r != nil {
			p, stack = r, debug.Stack()
			if w.holding {
				w.End()
			}
		}
	}()
	for {
		status := g.fns.Fn(w)
		if w.holding {
			// The functor returned without closing its CPU section; balance
			// it so the context is not leaked. This is the runtime's own
			// repair path, not a functor, so the protocol checks don't apply.
			w.End() //dopevet:ignore beginend,suspendcheck runtime balancer closes a window the functor leaked
		}
		switch status {
		case Executing:
			if s.retiring() {
				return Executing, nil, nil // retirement observed between iterations
			}
		case Suspended:
			return Suspended, nil, nil
		default:
			return Finished, nil, nil
		}
	}
}

// failed applies the stage's failure policy to one panicked attempt and
// reports whether the slot should respawn. Escalation rules: FailRestart
// falls back to FailStop when the stage overruns its failure budget within
// the rolling window; FailDegrade does so when the failing slot is the
// stage's last active one.
func (g *workerGroup) failed(s *groupSlot, p any, stack []byte) (respawn bool) {
	e := g.exec
	now := e.clock.Now()
	g.mu.Lock()
	cut := now.Add(-g.window)
	kept := g.failTimes[:0]
	for _, ft := range g.failTimes {
		if ft.After(cut) {
			kept = append(kept, ft)
		}
	}
	g.failTimes = append(kept, now)
	inWindow := len(g.failTimes)
	active := len(g.activeLocked())
	streamDone := g.sawFin
	g.mu.Unlock()

	consec := g.stats.ObserveFailure()
	e.taskFailures.Add(1)

	policy, escalated := g.policy, false
	switch policy {
	case FailRestart:
		if inWindow > g.budget {
			policy, escalated = FailStop, true
		}
	case FailDegrade:
		// Degrading the last active slot normally kills the stage while
		// upstream may still feed it, so it escalates — unless a sibling
		// already finished the stream, in which case retiring the last
		// slot just completes the (input-exhausted) stage.
		if active <= 1 && !streamDone {
			policy, escalated = FailStop, true
		}
	}

	err := taskError(g.key, p, stack)
	e.emit(Event{
		Kind: EventTaskFailure,
		Nest: g.key.Nest, Stage: g.key.Stage,
		Policy: policy, Escalated: escalated,
		Failures: inWindow, ConsecFailures: consec,
		Err: err, Stack: string(stack),
	})
	// Failures are rare and severe: deliver now rather than at the next
	// tick, so an operator's trace shows the failure before its fallout.
	e.flushTrace()

	switch policy {
	case FailRestart:
		g.backoff(s, e.restartBackoff(inWindow))
		if s.retiring() || e.stop.Load() {
			return false
		}
		if g.top && g.r.suspending() {
			g.mu.Lock()
			g.sawSusp = true
			g.mu.Unlock()
			return false
		}
		return true
	case FailDegrade:
		g.degrade(s)
		return false
	default: // FailStop
		e.recordTaskFailure(err)
		return false
	}
}

// backoff sleeps for up to d before a FailRestart respawn, staying
// responsive to retirement, suspension, and Stop.
func (g *workerGroup) backoff(s *groupSlot, d time.Duration) {
	const step = 500 * time.Microsecond
	deadline := time.Now().Add(d)
	for {
		if s.retiring() || g.exec.stop.Load() || (g.top && g.r.suspending()) {
			return
		}
		left := time.Until(deadline)
		if left <= 0 {
			return
		}
		if left > step {
			left = step
		}
		time.Sleep(left)
	}
}

// degrade retires the failing slot and shrinks the stage by one: the group
// target drops (floor 1), and for a top-level group the shrink is written
// into the active configuration under the install lock so CurrentConfig,
// Report, and mechanisms all observe it — a mechanism that wants the extent
// back simply proposes it again. Nested groups only shrink this instance;
// the next instantiation starts from the configured extent anyway.
func (g *workerGroup) degrade(s *groupSlot) {
	e := g.exec
	e.installMu.Lock()
	g.mu.Lock()
	s.retireAndCancel()
	from := g.target
	if g.target > 1 {
		g.target--
	}
	to := g.target
	g.mu.Unlock()
	if g.top {
		if cur := e.cfg.Load(); cur != nil && cur.Alt == g.altIdx && g.idx < len(cur.Extents) {
			nc := cur.Clone()
			nc.Extents[g.idx] = to
			e.cfg.Store(nc)
		}
	}
	e.installMu.Unlock()
	e.resizes.Add(1)
	g.stats.ObserveResize()
	e.emit(Event{
		Kind: EventResize, Stage: g.st.Name,
		FromExtent: from, ToExtent: to,
		Config: e.cfg.Load().Clone(), Mechanism: FailDegrade.String(),
	})
	// Part of the failure path: deliver with the failure, not a tick later.
	e.flushTrace()
}

// slotExit removes s from the group and closes the group when the last slot
// leaves. Fini (run by the nest) must only fire once every slot is out, so
// the close condition counts retiring slots too. A slot the watchdog
// already abandoned is no longer in the group — its accounting was settled
// at abandonment and the group may have closed (and the nest respawned)
// long ago — so only the zombie gauge learns that the goroutine finally
// exited.
func (g *workerGroup) slotExit(s *groupSlot) {
	g.mu.Lock()
	found := false
	for i, other := range g.slots {
		if other == s {
			g.slots = append(g.slots[:i], g.slots[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		g.mu.Unlock()
		g.stats.ObserveZombieExit()
		return
	}
	finished := g.started && len(g.slots) == 0 && !g.closed
	if finished {
		g.closed = true
	}
	g.mu.Unlock()
	g.stats.ObserveWorkerExit(s.retiring())
	if finished {
		g.exec.unwatch(g)
		close(g.done)
	}
}

// wait blocks until every slot has exited.
func (g *workerGroup) wait() { <-g.done }

// suspended reports whether a non-retired slot exited with Suspended.
func (g *workerGroup) suspended() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sawSusp
}

// cancelSlots closes every live slot's Done channel; the run calls it when
// it begins suspending so functors blocked inside a CPU section (or on a
// TaskContext-aware wait) observe the drain request promptly.
func (g *workerGroup) cancelSlots() {
	g.mu.Lock()
	slots := append([]*groupSlot(nil), g.slots...)
	g.mu.Unlock()
	for _, s := range slots {
		s.cancel()
	}
}

// patrolDeadline is one watchdog sweep over the group's slots: any open
// invocation window older than the group's deadline is a stall.
func (g *workerGroup) patrolDeadline(now time.Time) {
	if g.deadline <= 0 {
		return
	}
	g.mu.Lock()
	slots := append([]*groupSlot(nil), g.slots...)
	g.mu.Unlock()
	for _, s := range slots {
		w := s.winState.Load()
		if w&(winOpenBit|winAbandonedBit) != winOpenBit {
			continue
		}
		start := time.Unix(0, s.winStart.Load())
		if age := now.Sub(start); age > g.deadline {
			g.stalled(s, age)
		}
	}
}

// patrolDrain handles an expired drain timeout: every slot still alive
// this long after the run began suspending is keeping Wait (and the next
// configuration) hostage, so each is treated as stalled regardless of
// deadlines or window state.
func (g *workerGroup) patrolDrain(age time.Duration) {
	g.mu.Lock()
	slots := append([]*groupSlot(nil), g.slots...)
	g.mu.Unlock()
	for _, s := range slots {
		g.stalled(s, age)
	}
}

// stalled applies the stage's failure policy to one stalled slot. It
// mirrors failed(): stalls share the stage's rolling failure window and
// escalation rules (FailRestart over budget, FailDegrade on the last
// active slot). Unlike a panic, the stuck goroutine cannot be joined; the
// slot is abandoned — token reclaimed, accounting fenced, Done closed so a
// cooperative functor can unblock — and under FailRestart a replacement is
// spawned unless the run is draining.
func (g *workerGroup) stalled(s *groupSlot, age time.Duration) {
	// Claim the stall first: the abandoned bit is the single-settlement
	// point against both a racing late End and the next patrol tick.
	claimed, reclaim := s.claimStall()
	if !claimed {
		return
	}
	// Retire now, but close Done only once the slot is off the group's
	// books and its replacement spawned (below): a cooperative functor
	// woken by Done exits through slotExit, and if it got there first on a
	// one-slot group it would close the group before the replacement
	// existed, silently ending the stage.
	s.retire.Store(true)

	e := g.exec
	duringDrain := g.r.suspending()
	now := e.clock.Now()
	g.mu.Lock()
	cut := now.Add(-g.window)
	kept := g.failTimes[:0]
	for _, ft := range g.failTimes {
		if ft.After(cut) {
			kept = append(kept, ft)
		}
	}
	g.failTimes = append(kept, now)
	inWindow := len(g.failTimes)
	active := len(g.activeLocked())
	streamDone := g.sawFin
	g.mu.Unlock()

	e.taskStalls.Add(1)
	g.stats.ObserveStall(duringDrain)

	policy, escalated := g.policy, false
	if !duringDrain {
		// During a drain there is nothing to restart into and no extent
		// worth shrinking; restart/degrade both reduce to the abandonment
		// below. Outside a drain the panic-path escalation rules apply.
		switch policy {
		case FailRestart:
			if inWindow > g.budget {
				policy, escalated = FailStop, true
			}
		case FailDegrade:
			// s was already retired above, so unlike failed()'s "active
			// <= 1" the stage is down to its last slot when no active
			// slots remain besides it. If a sibling already finished the
			// stream, though, the input is exhausted and abandoning the
			// last slot simply completes the stage — nothing upstream can
			// starve, so degrading (to an empty, closing group) is safe.
			if active == 0 && !streamDone {
				policy, escalated = FailStop, true
			}
		}
	}

	var err error
	var stack []byte
	if policy == FailStop {
		stack = allStacks()
		err = stallError(g.key, age, g.deadline, stack)
	}
	e.emit(Event{
		Kind: EventTaskStall,
		Nest: g.key.Nest, Stage: g.key.Stage,
		Policy: policy, Escalated: escalated, DuringDrain: duringDrain,
		Deadline: g.deadline, Stalled: age,
		Failures: inWindow, Err: err, Stack: string(stack),
	})

	if reclaim {
		e.contexts.Release()
	}
	g.stats.ObserveAbandon(s.rec.Load())
	g.mu.Lock()
	for i, other := range g.slots {
		if other == s {
			g.slots = append(g.slots[:i], g.slots[i+1:]...)
			break
		}
	}
	respawn := policy == FailRestart && !duringDrain &&
		!e.stop.Load() && !g.r.suspending() && !g.closed
	if respawn {
		g.spawnLocked(1)
	}
	finished := g.started && len(g.slots) == 0 && !g.closed
	if finished {
		g.closed = true
	}
	g.mu.Unlock()
	s.cancel()
	if finished {
		e.unwatch(g)
		close(g.done)
	}

	switch policy {
	case FailDegrade:
		if !duringDrain {
			g.degrade(s)
		}
	case FailStop:
		e.recordTaskFailure(err)
	}
}
