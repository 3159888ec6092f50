// Package core implements the Degree of Parallelism Executive: the task
// model, the configuration tree, the monitoring hooks, and the
// suspend→drain→reconfigure→resume protocol of the paper (§3–§6).
//
// # Model
//
// An application declares its parallelism as a static tree of nest
// specifications. A NestSpec corresponds to one parallelized loop and offers
// one or more alternatives (the paper's choice of ParDescriptors, used by
// task fusion). Each AltSpec lists its stages (the paper's Tasks: SEQ or
// PAR) and provides a Make factory that instantiates fresh functors and
// queues for one run of the loop. A stage may declare a nested NestSpec;
// its functor runs the nested loop for the current work item via
// Worker.RunNest, and each concurrent parent worker owns a private instance
// of the nested loop — exactly the Pthreads structure of Figure 7, where
// every outer transcoding thread spawns its own inner pipeline.
//
// The executive assigns each nest a Config: which alternative runs and with
// what DoP extent per stage. Each running stage is backed by a worker group
// (one goroutine per slot of the stage's extent), and the executive applies
// configuration changes with the cheapest protocol that realizes them:
//
//   - inner-nest changes take effect at the next nested instantiation;
//   - root extent-only changes resize the affected worker groups in place —
//     a grow spawns fresh slots, a shrink retires specific slots, which
//     observe retirement at their next Begin/End and exit after the current
//     iteration while every other stage keeps flowing;
//   - a root alternative switch (e.g. fusion ↔ pipeline), which changes the
//     stage set itself, uses the suspension protocol: top-level workers
//     observe Suspended from Task.Begin / Task.End and drain via their
//     FiniCBs, while the new alternative is instantiated at the suspension
//     request and serves behind them (Exec.serve lists when it must wait
//     for the drain instead).
package core

import (
	"encoding/json"
	"strconv"
)

// Status is the state a task reports after each iteration of its loop body
// (the paper's TaskStatus).
type Status int

const (
	// Executing means the loop should continue with another iteration.
	Executing Status = iota
	// Suspended means the executive asked this worker to stop and the task
	// has reached a consistent point; the worker loop exits. For a
	// whole-nest suspension the workers are respawned under the new
	// configuration; for a slot retired by an in-place shrink the exit is
	// final while the stage's remaining workers keep running.
	Suspended
	// Finished means the loop's exit branch was taken; the task is done.
	Finished
)

// String returns the conventional name of the status.
func (s Status) String() string {
	switch s {
	case Executing:
		return "EXECUTING"
	case Suspended:
		return "SUSPENDED"
	case Finished:
		return "FINISHED"
	default:
		return "INVALID"
	}
}

// TaskType says whether a stage's functor may be invoked concurrently by
// multiple workers (the paper's SEQ | PAR).
type TaskType int

const (
	// SEQ stages always run with extent 1.
	SEQ TaskType = iota
	// PAR stages run with any extent the configuration assigns.
	PAR
)

// String returns the conventional name of the task type.
func (t TaskType) String() string {
	if t == SEQ {
		return "SEQ"
	}
	return "PAR"
}

// MarshalJSON writes the type as the boolean the observation schema calls
// "par" (true for PAR).
func (t TaskType) MarshalJSON() ([]byte, error) {
	return strconv.AppendBool(nil, t == PAR), nil
}

// UnmarshalJSON reads the "par" boolean back.
func (t *TaskType) UnmarshalJSON(data []byte) error {
	var par bool
	if err := json.Unmarshal(data, &par); err != nil {
		return err
	}
	*t = SEQ
	if par {
		*t = PAR
	}
	return nil
}
