package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/faults"
	"dope/internal/queue"
	"dope/internal/stats"
)

// Stall-arm tuning. The deadline must comfortably exceed one healthy
// iteration's CPU section (so loaded CI machines do not trip spurious
// stalls) while keeping the detection bound — deadline + patrol interval —
// under the 2x-deadline claim the acceptance test checks.
const (
	stallDeadline = 60 * time.Millisecond
	stallRate     = 0.005 // injected stalls per stage call
	stallReqs     = 240
)

// Overload-arm tuning: a single PAR stage served from a bounded queue, with
// requests offered at 2x the stage's service rate in bursts (bursts rather
// than per-item pacing so sleep-granularity jitter cannot erase the
// overload).
const (
	overItems = 240
	overCap   = 8
	overBurst = 8
	overSlots = 4
	overUnits = 2000 // virtual-work units per item (2ms at UnitDuration)
)

// Stalls regenerates the stall-tolerance and overload-protection table: the
// same ferret batch under deterministic injected stalls for each failure
// policy, then a bounded-queue server at 2x overload for each queue
// OverloadPolicy.
func Stalls() (*Table, error) {
	t, _, err := stallsRun()
	return t, err
}

// stallsRaw carries the unformatted per-arm results so the acceptance test
// and benchmark can assert on more than the table's strings.
type stallsRaw struct {
	deadline time.Duration
	arms     map[string]*stallsResult
}

func stallsRun() (*Table, *stallsRaw, error) {
	t := &Table{
		ID:     "stalls",
		Title:  "REAL RUNTIME: stall tolerance and overload protection",
		Header: []string{"arm", "completed", "rate/s", "vs base", "stalls", "shed", "p99 ms", "outcome"},
		Notes: []string{
			fmt.Sprintf("stall arms: ferret batch, %.1f%% of segment/extract/index/rank iterations wedge until abandoned; per-stage deadline %v", stallRate*100, stallDeadline),
			"fail-stop surfaces the stall as a run error with a goroutine dump within 2x the deadline; fail-restart and fail-degrade absorb every stall and finish within 2x of the stall-free baseline",
			fmt.Sprintf("overload arms: bounded queue (cap %d) offered 2x its service rate; block backpressures the producer so p99 sojourn grows with the backlog, shed-newest/shed-oldest drop items to keep p99 bounded", overCap),
		},
	}
	raw := &stallsRaw{deadline: stallDeadline, arms: map[string]*stallsResult{}}

	baseline, err := stallsArm("stall-free", 0, core.FailRestart)
	if err != nil {
		return nil, nil, err
	}
	raw.arms[baseline.name] = baseline
	t.Rows = append(t.Rows, baseline.row(baseline.rate))
	for _, arm := range []struct {
		name   string
		policy core.FailurePolicy
	}{
		{"fail-stop", core.FailStop},
		{"fail-restart", core.FailRestart},
		{"fail-degrade", core.FailDegrade},
	} {
		res, err := stallsArm(arm.name, stallRate, arm.policy)
		if err != nil {
			return nil, nil, err
		}
		raw.arms[res.name] = res
		t.Rows = append(t.Rows, res.row(baseline.rate))
	}
	for _, arm := range []struct {
		name   string
		policy queue.OverloadPolicy
	}{
		{"block", queue.Block},
		{"shed-oldest", queue.ShedOldest},
		{"shed-newest", queue.ShedNewest},
	} {
		res, err := overloadArm(arm.name, arm.policy)
		if err != nil {
			return nil, nil, err
		}
		raw.arms[res.name] = res
		t.Rows = append(t.Rows, res.row(0))
	}
	return t, raw, nil
}

type stallsResult struct {
	name      string
	completed uint64
	rate      float64 // completions/s overall
	stalls    uint64
	shed      uint64
	isShedArm bool
	p99       float64 // seconds
	outcome   string

	// raw material for the acceptance test and benchmark
	maxDetect  time.Duration // largest non-drain stall age at detection
	runErr     error
	queueShed  uint64 // the queue's own counter (overload arms)
	reportShed uint64 // StageReport.Shed for the same stage
	shedEvents uint64 // EventShed emissions observed via the trace
}

func (r *stallsResult) row(baseRate float64) []string {
	vs, shed := "-", "-"
	if baseRate > 0 && r.rate > 0 && r.name != "stall-free" && r.outcome == "completed" {
		vs = fx(r.rate / baseRate)
	}
	if r.isShedArm {
		shed = fmt.Sprint(r.shed)
	}
	return []string{
		r.name, fmt.Sprint(r.completed), f1(r.rate), vs,
		fmt.Sprint(r.stalls), shed, ms(r.p99), r.outcome,
	}
}

// stallsArm runs one ferret batch with deterministic stall injection on the
// victim stages under the given failure policy. The victim stages carry a
// per-invocation deadline, so the executive's watchdog — not the
// application — is what unwedges each stall.
func stallsArm(name string, rate float64, policy core.FailurePolicy) (*stallsResult, error) {
	var maxDetect atomic.Int64
	v, err := newFerretVictim(240, faults.Stall, rate, policy, stallDeadline,
		core.WithDrainTimeout(250*time.Millisecond),
		core.WithTrace(func(ev core.Event) {
			if ev.Kind == core.EventTaskStall && !ev.DuringDrain {
				for {
					cur := maxDetect.Load()
					if int64(ev.Stalled) <= cur || maxDetect.CompareAndSwap(cur, int64(ev.Stalled)) {
						break
					}
				}
			}
		}),
	)
	if err != nil {
		return nil, err
	}
	s, e := v.server, v.exec
	for i := 0; i < stallReqs; i++ {
		if err := s.Submit(1.0); err != nil {
			return nil, err
		}
	}
	s.Close()
	runErr := e.Run()

	res := &stallsResult{
		name:      name,
		completed: s.Meter.Total(),
		rate:      s.Meter.Overall(),
		stalls:    e.TaskStalls(),
		outcome:   "completed",
		maxDetect: time.Duration(maxDetect.Load()),
		runErr:    runErr,
	}
	if p99, err := s.Resp.Percentile(99); err == nil {
		res.p99 = p99
	}
	if runErr != nil {
		if policy == core.FailStop && rate > 0 && strings.Contains(runErr.Error(), "stalled") {
			res.outcome = fmt.Sprintf("terminated (%d/%d served)", s.Meter.Total(), stallReqs)
			return res, nil
		}
		return nil, fmt.Errorf("stalls arm %s: %w", name, runErr)
	}
	if rate > 0 && policy == core.FailStop {
		return nil, fmt.Errorf("stalls arm %s: expected the run to terminate at the first stall", name)
	}
	return res, nil
}

// overReq is one overload-arm request.
type overReq struct {
	arrived time.Time
}

// overloadArm offers overItems requests at 2x the stage's service rate into
// a bounded queue with the given overload policy and measures the sojourn
// (enqueue attempt to completion) distribution of the requests that
// complete. Under Block the producer is backpressured, so sojourn includes
// the growing backlog; under the shed policies occupancy is capped, so
// sojourn stays bounded and the drop counter pays for it.
func overloadArm(name string, policy queue.OverloadPolicy) (*stallsResult, error) {
	q := queue.NewWithPolicy[*overReq](overCap, policy)
	var mu sync.Mutex
	var sojourns []float64

	spec := &core.NestSpec{Name: "overload", Alts: []*core.AltSpec{{
		Name:   "serve",
		Stages: []core.StageSpec{{Name: "serve", Type: core.PAR}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					if w.Suspending() {
						return core.Suspended
					}
					req, ok, err := q.DequeueUntil(w.Done())
					if errors.Is(err, queue.ErrClosed) {
						return core.Finished
					}
					if !ok {
						return core.Suspended
					}
					if w.Begin() == core.Suspended {
						return core.Suspended
					}
					apps.Work(overUnits)
					st := w.End()
					mu.Lock()
					sojourns = append(sojourns, time.Since(req.arrived).Seconds())
					mu.Unlock()
					return st
				},
				Load: func() float64 { return float64(q.Len()) },
				Shed: q.Shed,
			}}}, nil
		},
	}}}

	var shedEvents atomic.Uint64
	e, err := core.New(spec,
		core.WithContexts(overSlots),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{overSlots}}),
		core.WithTrace(func(ev core.Event) {
			if ev.Kind == core.EventShed {
				shedEvents.Add(1)
			}
		}),
	)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	// 2x overload: each burst of overBurst items arrives in the time the
	// stage serves overBurst/2 of them. Arrivals are open-loop: each item
	// is stamped with its scheduled arrival time and the producer paces
	// against that absolute schedule, so when Block backpressures the
	// producer the lost time shows up in the late items' sojourns instead
	// of silently stretching the schedule (coordinated omission).
	burstEvery := time.Duration(overBurst/2) * time.Duration(overUnits) * apps.UnitDuration / overSlots
	start := time.Now()
	for i := 0; i < overItems; i++ {
		due := start.Add(time.Duration(i/overBurst) * burstEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if err := q.Enqueue(&overReq{arrived: due}); err != nil && !errors.Is(err, queue.ErrShed) {
			return nil, fmt.Errorf("overload arm %s: %w", name, err)
		}
	}
	q.Close()
	runErr := e.Wait()
	wall := time.Since(start)

	res := &stallsResult{
		name:       name,
		completed:  uint64(len(sojourns)),
		shed:       q.Shed(),
		isShedArm:  true,
		outcome:    "completed",
		runErr:     runErr,
		queueShed:  q.Shed(),
		shedEvents: shedEvents.Load(),
	}
	if rep := e.Report().Nest("overload"); rep != nil {
		if sr := rep.Stage("serve"); sr != nil {
			res.reportShed = sr.Shed
		}
	}
	mu.Lock()
	if wall > 0 {
		res.rate = float64(len(sojourns)) / wall.Seconds()
	}
	if p99, err := stats.Percentile(sojourns, 99); err == nil {
		res.p99 = p99
	}
	mu.Unlock()
	if runErr != nil {
		return nil, fmt.Errorf("overload arm %s: %w", name, runErr)
	}
	return res, nil
}
