// Package faults is a deterministic fault injector for DoPE stage functors.
// It wraps StageFns so that a configurable fraction of iterations panic (or
// stall), which is how the harness and tests exercise the executive's
// failure policies without depending on real flaky hardware.
//
// Determinism matters more than realism here: an experiment comparing
// FailStop, FailRestart, and FailDegrade is only meaningful if each arm sees
// the same fault schedule. The injector therefore decides per stage from a
// call counter and a seeded hash — iteration n of stage s either always
// faults or never does, independent of goroutine scheduling. (Which worker
// slot draws the faulting call still varies run to run; the count and
// spacing of faults do not.)
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/core"
)

// Kind selects what an injected fault does to the victim iteration.
type Kind int

const (
	// Panic makes the iteration panic with a *Fault value before the
	// functor body runs.
	Panic Kind = iota
	// Delay stalls the iteration for the configured duration before the
	// functor body runs; it models a transient hiccup rather than a crash.
	Delay
	// Stall blocks the iteration forever inside its Begin/End CPU section:
	// the victim opens a window and waits on Worker.Done(), so it never
	// returns unless the executive's stall watchdog (or a drain
	// cancellation) abandons the slot. It models a task wedged on dead I/O
	// — the failure deadlines and drain timeouts exist for — while staying
	// leak-free in tests: abandonment closes Done and the goroutine exits
	// through the zombie path.
	Stall
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	default:
		return "unknown"
	}
}

// Fault is the value injected panics carry, so tests and policies can tell
// injected faults from genuine application bugs.
type Fault struct {
	Stage string // stage name the fault was injected into
	Call  uint64 // 1-based call sequence number within the stage
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected fault in stage %q (call %d)", f.Stage, f.Call)
}

// Injector decides, per stage functor call, whether to inject a fault.
type Injector struct {
	kind  Kind
	rate  float64 // faults per call in [0,1]
	seed  uint64
	delay time.Duration

	mu       sync.Mutex
	counters map[string]*stageCounter

	injected atomic.Uint64
}

type stageCounter struct {
	calls atomic.Uint64
}

// Option configures an Injector.
type Option func(*Injector)

// WithKind selects the fault kind (default Panic).
func WithKind(k Kind) Option { return func(in *Injector) { in.kind = k } }

// New returns an injector that faults the given fraction of calls (clamped
// to [0,1]) using seed to derive the deterministic schedule. The same
// (rate, seed) pair always selects the same call numbers within each stage.
func New(rate float64, seed uint64, opts ...Option) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in := &Injector{
		kind:     Panic,
		rate:     rate,
		seed:     seed,
		delay:    time.Millisecond,
		counters: make(map[string]*stageCounter),
	}
	for _, o := range opts {
		o(in)
	}
	return in
}

// Injected returns how many faults have been injected.
func (in *Injector) Injected() uint64 { return in.injected.Load() }

func (in *Injector) counter(stage string) *stageCounter {
	in.mu.Lock()
	defer in.mu.Unlock()
	c, ok := in.counters[stage]
	if !ok {
		c = &stageCounter{}
		in.counters[stage] = c
	}
	return c
}

// splitmix64 is the finalizer from the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash that maps (seed, stage, call) onto an effectively
// uniform value, so thresholding it reproduces the configured rate.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a folds a string into a 64-bit FNV-1a hash.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// shouldFault reports whether call number n (1-based) of stage should fault.
func (in *Injector) shouldFault(stage string, n uint64) bool {
	if in.rate <= 0 {
		return false
	}
	h := splitmix64(in.seed ^ fnv1a(stage) ^ splitmix64(n))
	return float64(h>>11)/float64(1<<53) < in.rate
}

// wrapFn wraps one stage functor with the injection check.
func (in *Injector) wrapFn(stage string, fn core.Functor) core.Functor {
	c := in.counter(stage)
	return func(w *core.Worker) core.Status {
		n := c.calls.Add(1)
		if in.shouldFault(stage, n) {
			in.injected.Add(1)
			switch in.kind {
			case Delay:
				time.Sleep(in.delay)
			case Stall:
				// Open a CPU section and never close it voluntarily: the
				// invocation-deadline watchdog sees the overdue window. Done
				// unblocks the goroutine once the slot is abandoned (or the
				// run drains), so the test process does not accumulate stuck
				// goroutines.
				if w.Begin() == core.Suspended {
					return core.Suspended
				}
				<-w.Done() //dopevet:ignore tokenhold injected stall: blocking inside the window is the fault being simulated
				w.End()    //dopevet:ignore suspendcheck injected stall: End after abandonment is the fenced zombie path
				return core.Suspended
			default:
				panic(&Fault{Stage: stage, Call: n})
			}
		}
		return fn(w)
	}
}

// Wrap returns a copy of fns whose functor is instrumented with fault
// injection for the named stage. Load/Init/Fini pass through untouched.
func (in *Injector) Wrap(stage string, fns core.StageFns) core.StageFns {
	fns.Fn = in.wrapFn(stage, fns.Fn)
	return fns
}

// WrapAlt rewrites alt's Make so every instantiated stage functor is
// instrumented. only, when non-empty, restricts injection to the named
// stages; others pass through unwrapped.
func (in *Injector) WrapAlt(alt *core.AltSpec, only ...string) {
	allow := make(map[string]bool, len(only))
	for _, s := range only {
		allow[s] = true
	}
	inner := alt.Make
	stages := alt.Stages
	alt.Make = func(item any) (*core.AltInstance, error) {
		inst, err := inner(item)
		if err != nil || inst == nil {
			return inst, err
		}
		for i := range inst.Stages {
			if i >= len(stages) {
				break
			}
			name := stages[i].Name
			if len(allow) > 0 && !allow[name] {
				continue
			}
			inst.Stages[i] = in.Wrap(name, inst.Stages[i])
		}
		return inst, nil
	}
}

// WrapNest instruments every alternative of the nest tree rooted at spec,
// including nested loops. only, when non-empty, restricts injection to the
// named stages anywhere in the tree. Shared sub-nests are wrapped once.
func (in *Injector) WrapNest(spec *core.NestSpec, only ...string) {
	in.wrapNest(spec, only, map[*core.NestSpec]bool{})
}

func (in *Injector) wrapNest(spec *core.NestSpec, only []string, seen map[*core.NestSpec]bool) {
	if spec == nil || seen[spec] {
		return
	}
	seen[spec] = true
	for _, alt := range spec.Alts {
		in.WrapAlt(alt, only...)
		for i := range alt.Stages {
			if alt.Stages[i].Nest != nil {
				in.wrapNest(alt.Stages[i].Nest, only, seen)
			}
		}
	}
}
