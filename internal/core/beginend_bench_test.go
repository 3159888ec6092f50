package core_test

import (
	"testing"

	"dope/internal/microbench"
)

// BenchmarkBeginEnd measures one monitored CPU section on one worker, the
// uncontended fast path. The paper's §8.2 claims total monitoring overhead
// below 1% "even for monitoring each and every instance of all the parallel
// tasks"; divide this number by a task's section length to check (e.g.
// ~100 ns against a 100 µs section is 0.1%). The body is shared with
// dope-bench -bench beginend (see microbench.RunBeginEnd).
func BenchmarkBeginEnd(b *testing.B) { microbench.RunBeginEnd(1)(b) }

// BenchmarkBeginEndContended runs the same monitored section on eight PAR
// workers over eight contexts, so every iteration crosses the token pool
// and the stage monitor concurrently — the regime the sharded freelists
// and per-slot accumulators exist for.
func BenchmarkBeginEndContended(b *testing.B) { microbench.RunBeginEnd(8)(b) }
