// Package microbench measures the executive's own overhead — the Begin/End
// hot path, the queue hand-off (queue.go) and the root alternative switch
// (altswitch.go) — outside `go test`, so cmd/dope-bench can emit benchmark
// trajectory files (BENCH_beginend.json, BENCH_queue.json,
// BENCH_altswitch.json) that are checked in and compared across PRs. The paper's
// §8.2 requires DoPE's monitoring and orchestration overhead to stay
// negligible relative to task grain; these numbers are the repo's standing
// evidence.
//
// The Begin/End variants bracket the interesting regimes:
//
//   - BeginEnd: one worker, one hardware context — the uncontended fast
//     path. The CI gate requires 0 allocs/op here.
//   - BeginEndContended8: eight workers on eight contexts hammering the
//     token pool and the per-slot monitor accumulators concurrently.
//   - BeginEndContended2: two workers on two contexts, the shape of the
//     spin-pipe benchmark's PAR stage; at GOMAXPROCS 2 both run at once.
//   - BeginEndMultiTenant: two single-worker tenants acquiring through
//     per-tenant quota pools layered over one shared context pool — the
//     multi-tenant fast path (quota CAS + shared CAS per Begin). Also
//     gated at 0 allocs/op.
//   - BeginEndCollector: the uncontended path with a live-ops
//     metrics.Collector attached (trace tap + report sampler). The
//     collector runs entirely off the hot path, so this is gated at
//     0 allocs/op too: its own sampling allocations amortize below one
//     object per million iterations.
package microbench

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/metrics"
	"dope/internal/platform"
)

// Result is one benchmark measurement. A case measured more than once
// reports every sample, the median as NsPerOp, the last sample's iteration
// count, and the worst sample's allocations.
type Result struct {
	Name        string    `json:"name"`
	Iterations  int       `json:"iterations"`
	NsPerOp     float64   `json:"ns_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	Samples     []float64 `json:"samples_ns_per_op,omitempty"`
	// ItemsInWindow is the altswitch suite's second measurement: items
	// completed in the two pipeline depths after a switch request (median).
	ItemsInWindow float64 `json:"items_in_window,omitempty"`
}

// benchCase is one named benchmark of a suite.
type benchCase struct {
	name  string
	bench func(b *testing.B)
}

// measure runs every case samples times and returns one Result per case.
func measure(cases []benchCase, samples int) []Result {
	out := make([]Result, 0, len(cases))
	for _, c := range cases {
		res := Result{Name: c.name}
		ns := make([]float64, samples)
		for i := range ns {
			r := testing.Benchmark(c.bench)
			ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
			res.Iterations = r.N
			res.AllocsPerOp = max(res.AllocsPerOp, r.AllocsPerOp())
			res.BytesPerOp = max(res.BytesPerOp, r.AllocedBytesPerOp())
		}
		if samples > 1 {
			res.Samples = append([]float64(nil), ns...)
		}
		sort.Float64s(ns)
		res.NsPerOp = ns[len(ns)/2]
		out = append(out, res)
	}
	return out
}

// Entry is one labeled run of the whole suite — one point on the
// trajectory.
type Entry struct {
	Label      string   `json:"label"`
	Date       string   `json:"date"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// beginEndSpec builds a one-stage nest whose functor is a bare monitored
// section: Begin immediately followed by End, iterated until every slot has
// burned its quota. Each slot counts in its own padded plain counter so the
// harness does not add a shared atomic RMW to every measured iteration. With
// workers > 1 the stage is PAR and every slot crosses the token pool and the
// monitor concurrently.
func beginEndSpec(quota int, workers int) *core.NestSpec {
	typ := core.SEQ
	if workers > 1 {
		typ = core.PAR
	}
	cnt := make([]struct {
		n int
		_ [56]byte
	}, workers)
	return &core.NestSpec{Name: "bench", Alts: []*core.AltSpec{{
		Name:   "loop",
		Stages: []core.StageSpec{{Name: "worker", Type: typ}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					c := &cnt[w.Slot()]
					if c.n >= quota {
						return core.Finished
					}
					c.n++
					w.Begin() //dopevet:ignore suspendcheck benchmark runs under a static configuration; statuses are irrelevant
					w.End()
					return core.Executing
				},
			}}}, nil
		},
	}}}
}

// RunBeginEnd returns the Begin/End benchmark body for the given number of
// workers: one monitored CPU section per iteration — the paper's
// Task::begin/Task::end pair, a context acquire and release, the sampled
// clock read (Worker.Begin times one window in k while windows are short)
// and the slot recorder update. cmd/dope-bench runs it through BeginEnd;
// internal/core's BenchmarkBeginEnd and BenchmarkBeginEndContended call it
// under go test -bench.
func RunBeginEnd(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		spec := beginEndSpec((b.N+workers-1)/workers, workers)
		e, err := core.New(spec,
			core.WithContexts(workers),
			core.WithInitialConfig(&core.Config{Extents: []int{workers}}))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// runBeginEndMultiTenant measures the tenant-pool Begin/End path: two
// single-worker executives, each acquiring through its own
// platform.TenantPool (quota 1) over one shared two-context pool. Both
// tenants stay inside their quota, so every iteration takes the quota-CAS +
// shared-CAS fast path — the per-Begin cost of multi-tenancy.
func runBeginEndMultiTenant(b *testing.B) {
	b.ReportAllocs()
	const tenants = 2
	shared := platform.NewContexts(tenants)
	quota := (b.N + tenants - 1) / tenants
	execs := make([]*core.Exec, tenants)
	for i := range execs {
		tp := platform.NewTenantPool(shared, 1)
		e, err := core.New(beginEndSpec(quota, 1),
			core.WithContextPool(tp),
			core.WithInitialConfig(&core.Config{Extents: []int{1}}))
		if err != nil {
			b.Fatal(err)
		}
		execs[i] = e
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i, e := range execs {
		wg.Add(1)
		go func(i int, e *core.Exec) {
			defer wg.Done()
			errs[i] = e.Run()
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// RunBeginEndCollector is the acceptance check for the live-ops layer:
// the same uncontended Begin/End loop, but with a metrics.Collector tapping
// the trace stream and sampling Report every 10ms while the benchmark runs.
// testing.Benchmark counts every allocation in the process, so the
// collector's own sampling shows up here — and must still amortize to
// 0 allocs/op over the measured iterations. internal/metrics's
// BenchmarkBeginEndCollector calls it under go test -bench.
func RunBeginEndCollector(b *testing.B) {
	b.ReportAllocs()
	spec := beginEndSpec(b.N, 1)
	e, err := core.New(spec,
		core.WithContexts(1),
		core.WithInitialConfig(&core.Config{Extents: []int{1}}))
	if err != nil {
		b.Fatal(err)
	}
	col := metrics.NewCollector(256)
	defer col.Close()
	release := col.Attach(e, 10*time.Millisecond)
	defer release()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BeginEnd runs the Begin/End suite and returns its results.
func BeginEnd() []Result {
	return measure([]benchCase{
		{"BeginEnd", RunBeginEnd(1)},
		{"BeginEndContended8", RunBeginEnd(8)},
		{"BeginEndContended2", RunBeginEnd(2)},
		{"BeginEndMultiTenant", runBeginEndMultiTenant},
		{"BeginEndCollector", RunBeginEndCollector},
	}, 5)
}

// Gate enforces the benchmark acceptance floor: the uncontended Begin/End
// path must be allocation-free — single-tenant, multi-tenant, and with a
// live-ops collector attached alike — and so must a hand-off through a
// bounded queue; and an alternative switch must not leave the input
// unclaimed for half a pipeline depth (the successor starts at the
// suspension request; behind a drain barrier it waits about a whole one).
// It returns an error naming the first violation.
func Gate(results []Result) error {
	for _, r := range results {
		switch r.Name {
		case "BeginEnd", "BeginEndMultiTenant", "BeginEndCollector":
			if r.AllocsPerOp > 0 {
				return fmt.Errorf("microbench: %s allocates %d objects/op, want 0 (Begin/End fast path must be allocation-free)",
					r.Name, r.AllocsPerOp)
			}
		case "AltSwitchPipelineToFused", "AltSwitchFusedToPipeline":
			if limit := altSwitchDepth / 2; r.NsPerOp > float64(limit) {
				return fmt.Errorf("microbench: %s idles the head for %.2f ms per switch, want under %v (the successor must not wait for the drain)",
					r.Name, r.NsPerOp/1e6, limit)
			}
		case "QueueSPSC64", "QueuePipe":
			// A queue that reallocates its backing store every capacity-th
			// operation stays far below one object per op, so the whole-number
			// allocs/op cannot see it; bytes/op can.
			if r.AllocsPerOp > 0 || r.BytesPerOp > 0 {
				return fmt.Errorf("microbench: %s allocates %d objects, %d bytes/op, want 0 (a bounded queue's ring is allocated once)",
					r.Name, r.AllocsPerOp, r.BytesPerOp)
			}
		}
	}
	return nil
}
