package metrics_test

import (
	"testing"

	"dope/internal/microbench"
)

// BenchmarkBeginEndCollector is the uncontended Begin/End loop with a
// Collector tapping the trace stream and sampling Report every 10ms, the
// body dope-bench -bench beginend gates (see
// microbench.RunBeginEndCollector). ReportAllocs counts the sampler's
// allocations too, so the 0 allocs/op hot-path guarantee holds only if the
// collector stays off the Begin/End path and its own work amortizes away.
func BenchmarkBeginEndCollector(b *testing.B) { microbench.RunBeginEndCollector(b) }
