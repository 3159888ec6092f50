package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dope/benchmark/spans"
	"dope/benchmark/stat"
	"dope/internal/core"
	"dope/internal/platform"
)

// system is one built instance of a workload's program under test together
// with the benchmark's clients of it. The three kinds of scenario each
// implement it; everything else in a run is shared.
type system interface {
	// prime serves one unit of work end to end; it is the tail of set-up.
	prime() error
	// drive offers load for d. With win set the drive is the measured
	// window: it starts the window's accounting afresh, calls win.start
	// just before the first operation is offered (after the inputs have
	// been generated) and win.end the moment d has passed; without, it is
	// warm-up. An open-loop drive returns only once everything it sent has
	// been answered or refused, which is after win.end.
	drive(d time.Duration, seed int64, win *windowEdges) error
	// completed counts the operations finished since the system was built.
	completed() uint64
	// execs and pools expose the executives and the context pools they
	// draw from, for the probe and the end-of-run checks.
	execs() []*core.Exec
	pools() []platform.ContextPool
	// finish closes the input, waits for the drain, checks the program's
	// outputs and accounts for the measured window.
	finish() (*outcome, error)
	// layers adds the workload's own per-layer metrics.
	layers(v values, items float64)
	// shutdown releases servers, collectors and clients.
	shutdown()
}

// windowEdges are the runner's hooks at the two edges of the measured
// window, where it reads the clocks and counters.
type windowEdges struct{ start, end func() }

// outcome accounts for the operations offered in the measured window.
type outcome struct {
	attempted int
	// failed counts operations that did not get the outcome the workload
	// expects: lost, duplicated, or not answered within the drain timeout.
	failed int
	// refused counts operations shed or rejected by an overload policy the
	// scenario declares (the bursty tenant's bounded queue and admission
	// check). They are expected, so they are not in failed, but they count
	// in workload.failed_share and never contribute a response time.
	refused int
	// resp returns the p-th percentile of the window's response times in
	// milliseconds, with an error when the sample is too small to support
	// it (the value is then a loose estimate).
	resp func(p float64) (float64, error)
	// respN is the number of response samples.
	respN int
	// late is how late the generator sent each request of the window;
	// backlog the number of requests sent but unanswered, sampled over the
	// window. Both are empty for a closed loop.
	late    []time.Duration
	backlog []backlogPoint
	drain   time.Duration
	// problems lists failed correctness checks.
	problems []string
}

type backlogPoint struct {
	at time.Duration
	n  int
}

// values holds computed metrics by name.
type values map[string]float64

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// lenient turns the validity guards (sample sizes, generator lateness,
	// backlog growth) into warnings, for sub-second smoke runs.
	lenient bool
	outDir  string
}

// runResult is what one run reports.
type runResult struct {
	attempted int
	failed    int
	problems  []string
	warnings  []string
	values    values
}

func (r *runResult) correct() bool { return len(r.problems) == 0 }

// invalid files a failed validity guard: a failed check, or under -lenient
// a warning.
func (r *runResult) invalid(lenient bool, msg string) {
	if lenient {
		r.warnings = append(r.warnings, msg)
	} else {
		r.problems = append(r.problems, msg)
	}
}

// setupReps is how many times a run builds the program. Set-up takes tens
// of milliseconds, so one sample is mostly noise; the median of several is
// what setup_s reports.
const setupReps = 9

// drainTimeout bounds every wait for the program to answer what it was
// sent; a request still unanswered after it counts as failed.
const drainTimeout = 20 * time.Second

func runWorkload(sc *Scenario, o options) (*runResult, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	res := &runResult{values: values{}}
	v := res.values
	v["workload.sleep_floor_us"] = sleepFloor()

	var tr *spans.Tracer
	if o.trace {
		tr = spans.New()
	}
	goroutines := runtime.NumGoroutine()

	var sys system
	setups := make([]float64, setupReps)
	for i := range setups {
		start := time.Now()
		s, err := build(sc, o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := s.prime(); err != nil {
			s.shutdown()
			return nil, fmt.Errorf("set-up: priming: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		if i == len(setups)-1 {
			sys = s
			break
		}
		_, err = s.finish()
		s.shutdown()
		if err != nil {
			return nil, fmt.Errorf("set-up: tearing down repetition %d: %w", i, err)
		}
	}
	v["setup_s"] = stat.Median(setups)

	warm := time.Duration(sc.WarmupS * float64(time.Second))
	window := time.Duration(o.seconds * float64(time.Second))
	if err := sys.drive(warm, o.seed^0x5eed, nil); err != nil {
		sys.shutdown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var pr *probe
	var before, after snapshot
	err := sys.drive(window, o.seed, &windowEdges{
		start: func() {
			if o.trace {
				pr = startProbe(sys, tr)
			}
			before = snap(sys)
		},
		end: func() {
			after = snap(sys)
			if pr != nil {
				pr.stop()
			}
		},
	})
	if err != nil {
		sys.shutdown()
		return nil, fmt.Errorf("measured window: %w", err)
	}
	execs, pools := sys.execs(), sys.pools()
	out, err := sys.finish()
	sys.shutdown()
	if err != nil {
		return nil, err
	}

	res.attempted, res.failed = out.attempted, out.failed
	res.problems = append(res.problems, out.problems...)
	if out.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d operations failed", out.failed, out.attempted))
	}
	for i, p := range pools {
		if b := p.Busy(); b != 0 {
			res.problems = append(res.problems, fmt.Sprintf("pool %d still has %d contexts busy after Wait", i, b))
		}
	}
	if left := settleGoroutines(goroutines); left > goroutines {
		res.problems = append(res.problems, fmt.Sprintf("%d goroutines after Wait, %d before set-up", left, goroutines))
	}

	// End-to-end metrics.
	elapsed := after.at.Sub(before.at).Seconds()
	items := float64(after.items - before.items)
	if items <= 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	cpu := (after.cpu - before.cpu).Seconds()
	v["items_per_s"] = items / elapsed
	v["cpu_us_per_item"] = cpu * 1e6 / items
	guard := func(name string, p float64) {
		x, err := out.resp(p)
		if err != nil {
			res.invalid(o.lenient, fmt.Sprintf("%s: %v", name, err))
		}
		v[name] = x
	}
	guard("resp_p50_ms", 50)
	guard("resp_p95_ms", 95)
	guard("workload.resp_p99_ms", 99)
	v["workload.resp_samples"] = float64(out.respN)
	v["workload.failed_share"] = float64(out.failed+out.refused) / float64(max(out.attempted, 1))

	// Validity of the load generation.
	if len(out.late) > 0 {
		v["workload.offered_per_s"] = float64(len(out.late)) / elapsed
		late := make([]float64, len(out.late))
		for i, d := range out.late {
			late[i] = d.Seconds() * 1e3
		}
		v["workload.late_ms_p95"] = stat.PercentileLoose(late, 95)
		if v["workload.late_ms_p95"] > maxLateMs {
			res.invalid(o.lenient, fmt.Sprintf("generator ran late: p95 %.2f ms > %.0f ms", v["workload.late_ms_p95"], maxLateMs))
		}
	}
	if len(out.backlog) > 0 {
		v["workload.backlog_end"] = float64(out.backlog[len(out.backlog)-1].n)
		if grew, by := backlogGrowing(out.backlog, out.attempted); grew {
			res.invalid(o.lenient, fmt.Sprintf("backlog still growing over the second half of the window (by %.0f requests)", by))
		}
	}

	// Layers measured from outside: counters of the executives and pools,
	// the Go runtime, and whatever the workload timed itself.
	var reconfigs, resizes, suspensions, failures, stalls uint64
	for _, e := range execs {
		reconfigs += e.Reconfigurations()
		resizes += e.Resizes()
		suspensions += e.Suspensions()
		failures += e.TaskFailures()
		stalls += e.TaskStalls()
	}
	v["core.reconfigs"] = float64(reconfigs)
	v["core.resizes"] = float64(resizes)
	// Stopping an executive is its last suspension; it is not a
	// reconfiguration, so it is not counted.
	v["core.suspensions"] = math.Max(0, float64(suspensions)-float64(len(execs)))
	v["core.task_failures"] = float64(failures)
	v["core.task_stalls"] = float64(stalls)
	v["core.drain_ms"] = out.drain.Seconds() * 1e3
	v["platform.acquires_per_item"] = float64(after.acquires-before.acquires) / items
	var occupancy float64
	peak := 0
	for _, p := range pools {
		occupancy += p.MeanOccupancy()
		peak = max(peak, p.Peak())
	}
	v["platform.mean_occupancy"] = occupancy
	v["platform.peak_busy"] = float64(peak)
	v["go.mallocs_per_item"] = float64(after.mallocs-before.mallocs) / items
	v["go.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	sys.layers(v, items)
	if pr != nil {
		pr.layers(v)
		all := tr.Spans()
		v["trace.spans"] = float64(len(all))
		if err := writeTrace(o.outDir, sc.Name, all); err != nil {
			return nil, err
		}
	}
	v["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// preconditionFor is how long every run keeps all CPUs busy before it
// does anything else. On the reference box (a two-vCPU microVM) the CPU
// time the guest charges for a timer wake-up doubles, for the better part
// of a minute, once the VM has been busy for a second or two: a sleep and
// wake cost 6-7 us of process CPU after a quiet spell and 11-18 us after a
// three-second spin, and a virtual-work run measured 44-47 us per item
// after a quiet run and 67-69 us after spin-pipe. So what ran before a run
// set its CPU cost. Every run therefore begins by putting the host into
// the recently-busy state, which is the one a run can reach quickly; half
// a second is not enough, two seconds are.
const preconditionFor = 2500 * time.Millisecond

func precondition() {
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < preconditionFor; {
			}
		}()
	}
	wg.Wait()
}

// maxLateMs is the generator-lateness guard: beyond it the run measured
// the load generator, not the program.
const maxLateMs = 2.0

// sleepFloor measures how long the shortest time.Sleep really takes on
// this host, in microseconds. Virtual work is a sleep, so a task shorter
// than this floor measures the timer, not the program.
func sleepFloor() float64 {
	const n = 20
	took := make([]float64, n)
	for i := range took {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		took[i] = float64(time.Since(start).Microseconds())
	}
	return stat.Median(took)
}

// snapshot is the state read at both edges of the measured window.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	items    uint64
	acquires uint64
	mallocs  uint64
	gcPause  uint64
}

func snap(sys system) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{mallocs: ms.Mallocs, gcPause: ms.PauseTotalNs}
	for _, p := range sys.pools() {
		s.acquires += p.Acquires()
	}
	s.items = sys.completed()
	s.cpu = processCPU()
	s.at = time.Now()
	return s
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// settleGoroutines waits briefly for the goroutine count to return to
// want (exiting goroutines are still counted until they are descheduled)
// and returns the count it last saw.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// backlogGrowing fits a line through the backlog samples of the second
// half of the window and reports whether it rises by more than a twentieth
// of what that half was offered: the sign of a rate the program cannot
// sustain, whose latency would keep growing for as long as the run lasted.
func backlogGrowing(b []backlogPoint, attempted int) (bool, float64) {
	half := b[len(b)/2:]
	if len(half) < 4 {
		return false, 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range half {
		x, y := p.at.Seconds(), float64(p.n)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(half))
	den := n*sxx - sx*sx
	if den == 0 {
		return false, 0
	}
	slope := (n*sxy - sx*sy) / den
	rise := slope * (half[len(half)-1].at - half[0].at).Seconds()
	return rise > float64(attempted)/2/20, rise
}

func writeTrace(dir, workload string, all []spans.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := spans.WriteJSONL(f, all); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// percentiles returns an outcome's resp over the given response times.
func percentiles(ms []float64) func(p float64) (float64, error) {
	return func(p float64) (float64, error) {
		x, err := stat.Percentile(ms, p)
		if err != nil {
			return stat.PercentileLoose(ms, p), err
		}
		return x, nil
	}
}

// build constructs the program a scenario describes.
func build(sc *Scenario, seed int64, tr *spans.Tracer) (system, error) {
	switch sc.Kind {
	case "pipeline":
		return buildPipeline(sc, seed, tr)
	case "server":
		return buildServer(sc, tr)
	default:
		return buildTenants(sc, seed, tr)
	}
}

// samples collects whole-number samples of one quantity (mostly the
// durations in nanoseconds of one kind of call into a layer) from any
// number of goroutines.
type samples struct {
	mu sync.Mutex
	ns []float64
}

func (o *samples) add(x int64) {
	o.mu.Lock()
	o.ns = append(o.ns, float64(x))
	o.mu.Unlock()
}

func (o *samples) percentile(p float64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return stat.PercentileLoose(o.ns, p)
}

func (o *samples) mean() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return stat.Mean(o.ns)
}
