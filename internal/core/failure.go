package core

import (
	"fmt"
	"time"

	"dope/internal/monitor"
)

// FailurePolicy selects how the executive reacts when a stage's functor
// panics. The paper's separation of concerns puts the functor on the
// application side of the runtime boundary, so the runtime cannot vouch for
// it; the policy decides how much of the application one bad iteration may
// take down. The policy is chosen per stage (StageSpec.OnFailure) with an
// executive-wide default (WithFailurePolicy).
type FailurePolicy int

const (
	// FailDefault defers to the executive-wide policy, which itself
	// defaults to FailStop.
	FailDefault FailurePolicy = iota
	// FailStop records the panic (with its stack) as the run error and
	// shuts the whole application down — the conservative choice and the
	// default: a panic may have corrupted state shared beyond the stage.
	FailStop
	// FailRestart restarts the failing worker slot after an exponential
	// backoff. A per-stage failure budget bounds it: more than
	// FailureBudget failures within a rolling FailureWindow escalates the
	// stage to FailStop.
	FailRestart
	// FailDegrade retires the failing slot, shrinking the stage's extent
	// by one (floor 1) in both the worker group and the active
	// configuration, so mechanisms observe the shrink and may re-grow the
	// stage later. The failure of a stage's last active slot escalates to
	// FailStop: a pipeline stage cannot degrade to zero workers without
	// wedging its neighbours.
	FailDegrade
)

// String returns the conventional name of the policy.
func (p FailurePolicy) String() string {
	switch p {
	case FailDefault:
		return "default"
	case FailStop:
		return "fail-stop"
	case FailRestart:
		return "fail-restart"
	case FailDegrade:
		return "fail-degrade"
	default:
		return "invalid"
	}
}

// valid reports whether p is one of the declared policies.
func (p FailurePolicy) valid() bool {
	return p >= FailDefault && p <= FailDegrade
}

// Executive-wide failure-handling defaults; all overridable per option and,
// for budget and window, per stage.
const (
	// DefaultFailureBudget is the number of failures tolerated within the
	// failure window before FailRestart escalates to FailStop.
	DefaultFailureBudget = 8
	// DefaultFailureWindow is the rolling window the budget applies to.
	DefaultFailureWindow = time.Second
	// defaultRestartBackoff is the base delay before a FailRestart respawn;
	// it doubles per failure in the window, up to defaultRestartBackoffMax.
	defaultRestartBackoff    = time.Millisecond
	defaultRestartBackoffMax = 100 * time.Millisecond
)

// WithFailurePolicy sets the executive-wide failure policy applied to every
// stage whose spec leaves OnFailure as FailDefault. Passing FailDefault (or
// an out-of-range value) keeps FailStop.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(e *Exec) {
		if p.valid() && p != FailDefault {
			e.failPolicy = p
		}
	}
}

// WithFailureBudget sets the executive-wide restart budget: more than n
// failures of one stage within window escalate that stage to FailStop.
// Stages may override both via StageSpec.FailureBudget/FailureWindow.
func WithFailureBudget(n int, window time.Duration) Option {
	return func(e *Exec) {
		if n > 0 {
			e.failBudget = n
		}
		if window > 0 {
			e.failWindow = window
		}
	}
}

// WithRestartBackoff sets the FailRestart backoff: the first restart of a
// stage waits base, doubling per failure in the window up to max.
func WithRestartBackoff(base, max time.Duration) Option {
	return func(e *Exec) {
		if base > 0 {
			e.restartBase = base
		}
		if max > 0 {
			e.restartMax = max
		}
	}
}

// TaskFailures returns how many functor panics the executive has absorbed
// (under any policy, escalations included).
func (e *Exec) TaskFailures() uint64 { return e.taskFailures.Load() }

// taskError renders a functor panic as the error that becomes the run error
// under FailStop; the recovery-site stack makes the panic site attributable
// from logs.
func taskError(key monitor.Key, p any, stack []byte) error {
	return fmt.Errorf("core: task %s/%s panicked: %v\n%s", key.Nest, key.Stage, p, stack)
}

// fail makes err the run error (first failure wins) and publishes it.
func (e *Exec) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.errMu.Unlock()
	e.emit(Event{Kind: EventError, Err: err})
	e.flushTrace() // a fatal error must not sit in the batch buffer
}

// recordTaskFailure makes err the run error and shuts the application down;
// sibling tasks — of the failing run and of any run alongside it — drain
// through the normal protocol.
func (e *Exec) recordTaskFailure(err error) {
	e.fail(err)
	e.Stop()
}

// restartBackoff returns the delay before the n-th failure in the window is
// restarted: base·2^(n-1), capped at max.
func (e *Exec) restartBackoff(n int) time.Duration {
	d := e.restartBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= e.restartMax {
			return e.restartMax
		}
	}
	if d > e.restartMax {
		d = e.restartMax
	}
	return d
}
