package core

import (
	"fmt"
	"time"
)

// Functor is one iteration of a task's loop body. It is invoked repeatedly
// by each worker assigned to the stage until it returns Finished or
// Suspended (the paper's TaskExecutor control-flow abstraction, Figure 4).
// Implementations bracket their CPU-intensive section with Worker.Begin and
// Worker.End and run nested loops with Worker.RunNest.
type Functor func(w *Worker) Status

// StageFns is the runtime material of one stage instance: the functor plus
// the optional callbacks of the paper's Task type.
type StageFns struct {
	// Fn is the loop body; required.
	Fn Functor
	// Load reports the stage's current workload (typically its in-queue
	// occupancy); optional.
	Load func() float64
	// Shed reports how many items the stage's in-queue has dropped under
	// its overload policy (typically queue.Queue.Shed); optional. The
	// executive aggregates it into StageReport.Shed and emits EventShed
	// when it grows.
	Shed func() uint64
	// Sojourn reports the stage's smoothed in-queue wait in seconds
	// (typically queue.Queue.MeanSojourn); optional. The executive
	// aggregates it into StageReport.QueueSojourn, which the what-if
	// profiler reads.
	Sojourn func() float64
	// Init runs once before any worker executes Fn (the paper's InitCB);
	// optional.
	Init func()
	// Fini runs once after every worker of the stage has exited (the
	// paper's FiniCB, used to propagate drain sentinels downstream);
	// optional.
	Fini func()
}

// AltInstance is a fresh instantiation of an alternative: one StageFns per
// stage, index-aligned with AltSpec.Stages.
type AltInstance struct {
	Stages []StageFns
}

// StageSpec statically describes one stage of an alternative.
type StageSpec struct {
	// Name identifies the stage for monitoring and configuration; must be
	// unique within the alternative.
	Name string
	// Type is SEQ or PAR.
	Type TaskType
	// MinDoP is the smallest extent at which the stage speeds up over
	// sequential execution (Table 4's "Inner DoPmin extent for speedup").
	// Zero means 1. Configurations below MinDoP are legal but unhelpful;
	// mechanisms may consult it.
	MinDoP int
	// MaxDoP caps the extent; zero means unlimited.
	MaxDoP int
	// Nest, when non-nil, declares that this stage's functor runs the given
	// nested loop via Worker.RunNest.
	Nest *NestSpec
	// OnFailure selects how the executive reacts when this stage's functor
	// panics; FailDefault defers to the executive-wide policy
	// (WithFailurePolicy), which defaults to FailStop.
	OnFailure FailurePolicy
	// FailureBudget and FailureWindow bound FailRestart for this stage:
	// more than FailureBudget failures within a rolling FailureWindow
	// escalate it to FailStop. Zero means the executive default
	// (DefaultFailureBudget per DefaultFailureWindow, or WithFailureBudget).
	FailureBudget int
	FailureWindow time.Duration
	// Deadline bounds one invocation's Begin..End CPU section. The
	// executive's watchdog treats an overrun as a stall and applies
	// OnFailure (see stall.go). Zero defers to the executive-wide
	// WithDeadline default, which itself defaults to none. Functors of
	// deadlined stages should watch Worker.Done() (or Context().Done())
	// inside long loops so a cancelled invocation can stop cooperatively
	// instead of leaking a goroutine.
	Deadline time.Duration
}

// AltSpec is one alternative parallelization of a loop (one ParDescriptor).
type AltSpec struct {
	// Name identifies the alternative, e.g. "pipeline" or "fused".
	Name string
	// Stages lists the interacting tasks; the first is the master task,
	// whose completion status the loop reports (§3.2 step 4).
	Stages []StageSpec
	// Make instantiates fresh functors and connecting state (queues) for
	// one run of the loop over the given work item. item is nil for the
	// root loop. Make is called once per parent worker per iteration for
	// nested loops, so it must be safe for concurrent use.
	//
	// For the root loop the executive never has two instances of one
	// alternative alive: Make is called again only after the previous
	// instance's last Fini has returned, so it may reuse (reopen) state
	// that instance drained. Instances of different alternatives, however,
	// may run side by side for the length of one drain: on an alternative
	// switch the successor is instantiated at the suspension request while
	// the predecessor's workers finish the items they already claimed (see
	// Exec.serve; alternatives sharing a stage name are serialized instead).
	// Both claim input from the same source, so that source must hand each
	// item to exactly one claimant — a queue or a channel does — and state
	// shared between alternatives must be safe for concurrent use. A SEQ
	// stage bounds the workers within an instance, not across the two.
	Make func(item any) (*AltInstance, error)
}

// NestSpec is the static description of one parallelized loop together with
// its alternative parallelizations (the paper's TaskDescriptor with its
// choice of ParDescriptors).
type NestSpec struct {
	// Name identifies the loop; must be unique among siblings.
	Name string
	// Alts are the alternative parallelizations; at least one.
	Alts []*AltSpec
}

// Validate checks structural invariants of the spec tree: non-empty names,
// at least one alternative per nest, at least one stage per alternative,
// functor factories present, and name uniqueness among stages and nested
// loops.
func (n *NestSpec) Validate() error {
	return n.validate(map[*NestSpec]bool{})
}

func (n *NestSpec) validate(seen map[*NestSpec]bool) error {
	if n == nil {
		return fmt.Errorf("core: nil nest spec")
	}
	if seen[n] {
		return fmt.Errorf("core: nest %q appears in its own ancestry", n.Name)
	}
	seen[n] = true
	defer delete(seen, n)
	if n.Name == "" {
		return fmt.Errorf("core: nest with empty name")
	}
	if len(n.Alts) == 0 {
		return fmt.Errorf("core: nest %q has no alternatives", n.Name)
	}
	for _, alt := range n.Alts {
		if alt == nil {
			return fmt.Errorf("core: nest %q has a nil alternative", n.Name)
		}
		if alt.Name == "" {
			return fmt.Errorf("core: nest %q has an unnamed alternative", n.Name)
		}
		if len(alt.Stages) == 0 {
			return fmt.Errorf("core: alternative %q of nest %q has no stages", alt.Name, n.Name)
		}
		if alt.Make == nil {
			return fmt.Errorf("core: alternative %q of nest %q has no Make", alt.Name, n.Name)
		}
		names := make(map[string]bool, len(alt.Stages))
		childNames := make(map[string]bool)
		for _, st := range alt.Stages {
			if st.Name == "" {
				return fmt.Errorf("core: alternative %q of nest %q has an unnamed stage", alt.Name, n.Name)
			}
			if names[st.Name] {
				return fmt.Errorf("core: alternative %q of nest %q repeats stage %q", alt.Name, n.Name, st.Name)
			}
			names[st.Name] = true
			if st.MinDoP < 0 || st.MaxDoP < 0 {
				return fmt.Errorf("core: stage %q has negative DoP bound", st.Name)
			}
			if st.MaxDoP > 0 && st.MinDoP > st.MaxDoP {
				return fmt.Errorf("core: stage %q has MinDoP > MaxDoP", st.Name)
			}
			if !st.OnFailure.valid() {
				return fmt.Errorf("core: stage %q has invalid failure policy %d", st.Name, st.OnFailure)
			}
			if st.FailureBudget < 0 || st.FailureWindow < 0 {
				return fmt.Errorf("core: stage %q has negative failure budget or window", st.Name)
			}
			if st.Deadline < 0 {
				return fmt.Errorf("core: stage %q has negative deadline", st.Name)
			}
			if st.Nest != nil {
				if childNames[st.Nest.Name] {
					return fmt.Errorf("core: alternative %q of nest %q nests %q twice", alt.Name, n.Name, st.Nest.Name)
				}
				childNames[st.Nest.Name] = true
				if err := st.Nest.validate(seen); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Alt returns the i-th alternative, clamping i into range so a stale
// configuration can never index out of bounds.
func (n *NestSpec) Alt(i int) *AltSpec {
	if i < 0 {
		i = 0
	}
	if i >= len(n.Alts) {
		i = len(n.Alts) - 1
	}
	return n.Alts[i]
}

// mayOverlap reports whether instances of alternatives i and j may run side
// by side for the length of one drain: they must be different alternatives
// (an instance may own persistent state, such as inter-stage queues that
// Make reopens) with no stage name in common (the monitors key statistics by
// nest/stage).
func (n *NestSpec) mayOverlap(i, j int) bool {
	if i == j {
		return false
	}
	for _, a := range n.Alt(i).Stages {
		for _, b := range n.Alt(j).Stages {
			if a.Name == b.Name {
				return false
			}
		}
	}
	return true
}

// clampExtent applies the stage's type and DoP bounds to a requested extent.
func (s *StageSpec) clampExtent(e int) int {
	if s.Type == SEQ {
		return 1
	}
	if e < 1 {
		e = 1
	}
	if s.MaxDoP > 0 && e > s.MaxDoP {
		e = s.MaxDoP
	}
	return e
}
