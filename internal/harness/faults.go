package harness

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/faults"
)

// faultStages are the injection victims: ferret's middle PAR stages. The
// SEQ head and tail run at extent 1, where FailDegrade has no slot to give
// up, so faulting them would only demonstrate escalation.
var faultStages = []string{"segment", "extract", "index", "rank"}

// ferretVictim is one ferret batch whose faultStages run behind an injector.
type ferretVictim struct {
	server *apps.Server
	spec   *core.NestSpec
	faults *faults.Injector
	exec   *core.Exec
}

// newFerretVictim builds a ferret batch with stage cost unitsBase whose
// faultStages inject kind faults at rate (fixed seed) and answer them with
// policy, each invocation bounded by deadline (0 for none). The batch
// finishes in well under a second, so the default failure budget of 8 per
// rolling second is what the ~5–10 injected faults would be judged
// against; a budget of 50 gives headroom, so fail-restart shows absorption,
// not escalation. The executive runs the pipeline alternative at extent 6
// per victim stage on the live context count, with a short restart
// backoff, plus opts.
func newFerretVictim(unitsBase int, kind faults.Kind, rate float64, policy core.FailurePolicy,
	deadline time.Duration, opts ...core.Option) (*ferretVictim, error) {
	v := &ferretVictim{server: apps.NewServer(nil)}
	v.spec = apps.NewFerret(v.server, apps.FerretParams{UnitsBase: unitsBase})
	for i := range v.spec.Alts[0].Stages {
		st := &v.spec.Alts[0].Stages[i]
		if slices.Contains(faultStages, st.Name) {
			st.OnFailure = policy
			st.FailureBudget = 50
			st.Deadline = deadline
		}
	}
	v.faults = faults.New(rate, 7, faults.WithKind(kind))
	v.faults.WrapNest(v.spec, faultStages...)
	opts = append([]core.Option{
		core.WithContexts(liveContexts),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, 6, 6, 6, 6, 1}}),
		core.WithRestartBackoff(200*time.Microsecond, 5*time.Millisecond),
	}, opts...)
	var err error
	v.exec, err = core.New(v.spec, opts...)
	return v, err
}

// Faults measures throughput under deterministic fault injection for each
// failure policy. The same ferret batch and the same injected-panic
// schedule (1% of stage iterations, fixed seed) run four times: fault-free
// baseline, FailStop, FailRestart, and FailDegrade. FailStop aborts the run
// at the first panic — today's behavior, now opt-out — while the other two
// policies absorb every fault and must stay within 2x of the fault-free
// throughput.
func Faults() (*Table, error) {
	t := &Table{
		ID:     "faults",
		Title:  "REAL RUNTIME: throughput under 1% injected panics, by failure policy",
		Header: []string{"arm", "queries/s", "vs baseline", "injected", "absorbed", "degrades", "outcome"},
		Notes: []string{
			"deterministic injector: 1% of segment/extract/index/rank iterations panic, same schedule in every arm",
			"fail-stop terminates at the first panic; fail-restart and fail-degrade finish the batch within 2x of the fault-free baseline",
			"degrades counts slots retired by fail-degrade (visible to mechanisms as in-place shrinks)",
		},
	}
	baseline, err := faultsArm("baseline", 0, core.FailStop)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, baseline.row(baseline.rate))
	for _, arm := range []struct {
		name   string
		policy core.FailurePolicy
	}{
		{"fail-stop", core.FailStop},
		{"fail-restart", core.FailRestart},
		{"fail-degrade", core.FailDegrade},
	} {
		res, err := faultsArm(arm.name, 0.01, arm.policy)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, res.row(baseline.rate))
	}
	return t, nil
}

type faultsResult struct {
	name     string
	rate     float64 // queries/s overall
	injected uint64
	absorbed uint64
	degrades uint64
	outcome  string
}

func (r *faultsResult) row(baseRate float64) []string {
	vs := "-"
	if baseRate > 0 && r.rate > 0 && r.name != "baseline" && r.outcome == "completed" {
		vs = fx(r.rate / baseRate)
	}
	return []string{
		r.name, f1(r.rate), vs,
		fmt.Sprint(r.injected), fmt.Sprint(r.absorbed), fmt.Sprint(r.degrades),
		r.outcome,
	}
}

// faultsArm runs one ferret batch with the given injection rate and failure
// policy on the victim stages.
func faultsArm(name string, rate float64, policy core.FailurePolicy) (*faultsResult, error) {
	const nReq = 240
	v, err := newFerretVictim(120, faults.Panic, rate, policy, 0)
	if err != nil {
		return nil, err
	}
	s, spec, e := v.server, v.spec, v.exec
	for i := 0; i < nReq; i++ {
		s.Submit(1.0)
	}
	s.Close()
	runErr := e.Run()

	res := &faultsResult{
		name:     name,
		rate:     s.Meter.Overall(),
		injected: v.faults.Injected(),
		absorbed: e.TaskFailures(),
		outcome:  "completed",
	}
	rep := e.Report().Nest(spec.Name)
	if rep != nil {
		for _, st := range faultStages {
			if sr := rep.Stage(st); sr != nil {
				res.degrades += sr.Retired
			}
		}
	}
	if policy != core.FailDegrade {
		res.degrades = 0 // retirements under restart/stop are drain artifacts
	}
	if runErr != nil {
		if policy == core.FailStop && rate > 0 && strings.Contains(runErr.Error(), "panicked") {
			res.outcome = fmt.Sprintf("terminated (%d/%d served)", s.Meter.Total(), nReq)
			return res, nil
		}
		return nil, fmt.Errorf("faults arm %s: %w", name, runErr)
	}
	if rate > 0 && policy == core.FailStop {
		return nil, fmt.Errorf("faults arm %s: expected the run to terminate at the first panic", name)
	}
	return res, nil
}
