// Package apps ports the paper's six evaluation applications (Table 4) to
// the DoPE API as synthetic kernels. We do not have the original inputs
// (yuv4mpeg videos, SPEC ref data, PARSEC native sets), so each app
// reproduces the *parallelism structure* — loop-nest shape, pipeline
// topology, queue wiring, stage cost ratios, and parallel-efficiency
// characteristics — with calibrated CPU-bound work standing in for codec,
// compression, and search math. DoP adaptation only observes task timing
// and queue occupancy, so this substitution preserves the behaviour the
// paper evaluates (see DESIGN.md).
//
// Applications:
//
//   - transcode: x264-like video transcoding — outer DOALL over videos ×
//     inner 3-stage pipeline over frames (Figure 1).
//   - swaptions: Monte Carlo option pricing — outer over requests × inner
//     DOALL over simulation chunks.
//   - compress: bzip-like block compression — inner block pipeline whose
//     minimum useful DoP is 4 (Table 4).
//   - oilify: gimp oilify plugin — outer over images × inner DOALL tiles.
//   - ferret: 6-stage content-based image-search pipeline with a fused
//     middle alternative.
//   - dedup: chunk/hash/compress/write deduplication pipeline with a fused
//     alternative.
package apps

import (
	"sync/atomic"
	"time"
)

// sink prevents the optimizer from discarding kernel work.
var sink atomic.Uint64

// UnitDuration is the virtual-CPU time one work unit represents: 1 µs. All
// app parameters are expressed in units, so one nominal transcode frame
// (1500 units) costs 1.5 ms of context occupancy.
const UnitDuration = time.Microsecond

// Work performs `units` of virtual CPU-intensive work: it occupies the
// caller's hardware context for units × UnitDuration. Call it only between
// Worker.Begin and Worker.End, where the hardware context is held.
func Work(units int) {
	if units <= 0 {
		return
	}
	// The sleep is deliberate context occupancy, not a stall: the worker
	// holds its hardware context for the work's duration without consuming
	// a host core.
	time.Sleep(time.Duration(units) * UnitDuration) //dopevet:ignore tokenhold virtual work occupies the context on purpose
}

// Burn executes a deterministic CPU-bound kernel of the given size and
// returns its checksum. One unit is one xorshift step.
func Burn(units int) uint64 {
	var x uint64 = 88172645463325252
	for i := 0; i < units; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Store(x)
	return x
}

// SyncOverheadFactor models the synchronization/communication overhead of
// running a stage's work spread over extent workers: the per-item cost is
// inflated by (1 + sigma·(extent-1)). With sigma ≈ 0.04 the resulting
// speedup curve s(m) = m/(1+sigma(m-1)) hits the paper's ≈6.3× at m = 8
// for the transcode inner loop.
func SyncOverheadFactor(extent int, sigma float64) float64 {
	if extent <= 1 {
		return 1
	}
	return 1 + sigma*float64(extent-1)
}

// InflatedUnits applies SyncOverheadFactor to a unit count.
func InflatedUnits(units int, extent int, sigma float64) int {
	return int(float64(units) * SyncOverheadFactor(extent, sigma))
}
