package dope_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dope"
	"dope/internal/platform"
	"dope/internal/queue"
)

// counterSpec is a minimal server loop over a work queue for API tests.
func counterSpec(work *queue.Queue[int], processed *atomic.Int64) *dope.NestSpec {
	return &dope.NestSpec{Name: "api", Alts: []*dope.AltSpec{{
		Name:   "loop",
		Stages: []dope.StageSpec{{Name: "worker", Type: dope.PAR}},
		Make: func(item any) (*dope.AltInstance, error) {
			return &dope.AltInstance{Stages: []dope.StageFns{{
				Fn: func(w *dope.Worker) dope.Status {
					if w.Suspending() {
						return dope.Suspended
					}
					_, ok, err := work.DequeueWhile(
						func() bool { return !w.Suspending() }, 0)
					if errors.Is(err, queue.ErrClosed) {
						return dope.Finished
					}
					if !ok {
						return dope.Suspended
					}
					w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
					processed.Add(1)
					w.End()
					return dope.Executing
				},
				Load: func() float64 { return float64(work.Len()) },
			}}}, nil
		},
	}}}
}

func TestCreateDestroyLifecycle(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	d, err := dope.Create(counterSpec(work, &processed), dope.StaticGoal(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Goal().Name != "static" {
		t.Fatalf("goal = %q", d.Goal().Name)
	}
	for i := 0; i < 25; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := d.Destroy(); err != nil {
		t.Fatal(err)
	}
	if processed.Load() != 25 {
		t.Fatalf("processed = %d", processed.Load())
	}
}

func TestCreateRejectsBadSpec(t *testing.T) {
	if _, err := dope.Create(&dope.NestSpec{Name: ""}, dope.StaticGoal(2)); err == nil { //dopevet:ignore nestspec deliberately invalid spec under test
		t.Fatal("invalid spec accepted")
	}
}

func TestGoalConstructors(t *testing.T) {
	cases := []struct {
		goal dope.Goal
		name string
		mech string
	}{
		{dope.MinResponseTime(24, 8, 14), "min-response-time", "WQ-Linear"},
		{dope.MinResponseTimeWQTH(24, 8, 6), "min-response-time", "WQT-H"},
		{dope.MaxThroughput(24), "max-throughput", "TBF"},
		{dope.MaxThroughputUnderPower(24, 720), "max-throughput-under-power", "TPC"},
		{dope.CustomGoal("mine", 8, dope.Mechanisms.FDP(8)), "mine", "FDP"},
	}
	for _, c := range cases {
		if c.goal.Name != c.name {
			t.Errorf("goal name = %q, want %q", c.goal.Name, c.name)
		}
		if c.goal.Mechanism == nil || c.goal.Mechanism.Name() != c.mech {
			t.Errorf("goal %q mechanism = %v, want %s", c.name, c.goal.Mechanism, c.mech)
		}
	}
	if dope.StaticGoal(4).Mechanism != nil {
		t.Error("static goal must not adapt")
	}
	if dope.MaxThroughputUnderPower(24, 720).PowerBudget != 720 {
		t.Error("power budget not carried")
	}
}

func TestMechanismsCatalog(t *testing.T) {
	names := map[string]dope.Mechanism{
		"proportional":      dope.Mechanisms.Proportional(8),
		"WQT-H":             dope.Mechanisms.WQTH(8, 4, 2),
		"WQ-Linear":         dope.Mechanisms.WQLinear(8, 4, 10),
		"TB":                dope.Mechanisms.TB(8),
		"TBF":               dope.Mechanisms.TBF(8),
		"FDP":               dope.Mechanisms.FDP(8),
		"SEDA":              dope.Mechanisms.SEDA(4, 1),
		"TPC":               dope.Mechanisms.TPC(8, 500),
		"load-proportional": nil, // constructed internally; not in the catalog
	}
	for want, m := range names {
		if m == nil {
			continue
		}
		if m.Name() != want {
			t.Errorf("mechanism name = %q, want %q", m.Name(), want)
		}
	}
}

// TestMechanismCatalog: the name catalog behind PUT /mechanism and
// dope-replay offers one constructor per shipped mechanism, each call
// building a fresh instance.
func TestMechanismCatalog(t *testing.T) {
	cat := dope.MechanismCatalog(8, 500)
	if want := reflect.TypeOf(dope.Mechanisms).NumField(); len(cat) != want {
		t.Errorf("catalog has %d names, Mechanisms %d constructors", len(cat), want)
	}
	seen := map[string]string{}
	for key, newMech := range cat {
		m := newMech()
		if m == nil || m == newMech() {
			t.Fatalf("%s: constructor returned %v, want a fresh mechanism per call", key, m)
		}
		if other, dup := seen[m.Name()]; dup {
			t.Errorf("%s and %s both build %s", key, other, m.Name())
		}
		seen[m.Name()] = key
	}
}

func TestRegisterPowerModel(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	d, err := dope.Create(counterSpec(work, &processed), dope.StaticGoal(4))
	if err != nil {
		t.Fatal(err)
	}
	model := d.RegisterPowerModel(0)
	if model.Peak() <= model.Idle() {
		t.Fatal("degenerate power model")
	}
	v, err := d.Features().Value(platform.FeatureSystemPower)
	if err != nil {
		t.Fatal(err)
	}
	if v < model.Idle() || v > model.Peak() {
		t.Fatalf("power reading %v outside [%v, %v]", v, model.Idle(), model.Peak())
	}
	work.Close()
	d.Destroy()
}

func TestAdaptiveGoalEndToEnd(t *testing.T) {
	// MaxThroughput over a tiny pipeline must reconfigure at least once.
	work := queue.New[int](0)
	out := queue.New[int](0)
	var consumed atomic.Int64
	spec := &dope.NestSpec{Name: "e2e", Alts: []*dope.AltSpec{{
		Name: "pipeline",
		Stages: []dope.StageSpec{
			{Name: "produce", Type: dope.SEQ},
			{Name: "consume", Type: dope.PAR},
		},
		Make: func(item any) (*dope.AltInstance, error) {
			out.Reopen() // drained and closed by the previous run's Fini
			return &dope.AltInstance{Stages: []dope.StageFns{
				{
					Fn: func(w *dope.Worker) dope.Status {
						v, ok, err := work.DequeueWhile(
							func() bool { return !w.Suspending() }, 0)
						if errors.Is(err, queue.ErrClosed) {
							return dope.Finished
						}
						if !ok {
							return dope.Suspended
						}
						w.Begin() //dopevet:ignore suspendcheck,tokenhold suspension observed via DequeueWhile; sleep simulates stage work
						time.Sleep(50 * time.Microsecond)
						w.End()
						out.Enqueue(v)
						return dope.Executing
					},
					Load: func() float64 { return float64(work.Len()) },
					Fini: out.Close,
				},
				{
					Fn: func(w *dope.Worker) dope.Status {
						_, ok, err := out.DequeueWhile(
							func() bool { return !w.Suspending() }, 0)
						if errors.Is(err, queue.ErrClosed) {
							return dope.Finished
						}
						if !ok {
							return dope.Suspended
						}
						w.Begin() //dopevet:ignore suspendcheck,tokenhold suspension observed via DequeueWhile; sleep simulates stage work
						time.Sleep(500 * time.Microsecond)
						consumed.Add(1)
						w.End()
						return dope.Executing
					},
					Load: func() float64 { return float64(out.Len()) },
				},
			}}, nil
		},
	}}}
	d, err := dope.Create(spec, dope.MaxThroughput(8),
		dope.WithControlInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := d.Destroy(); err != nil {
		t.Fatal(err)
	}
	if consumed.Load() != 300 {
		t.Fatalf("consumed = %d", consumed.Load())
	}
	if d.Reconfigurations() == 0 {
		t.Fatal("TBF never rebalanced the pipeline")
	}
	final := d.CurrentConfig()
	if final.Extents[1] <= 1 {
		t.Fatalf("consume stage never grew: %v", final)
	}
}

func TestDemandAndDefaultConfig(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	spec := counterSpec(work, &processed)
	cfg := dope.DefaultConfig(spec)
	if dope.Demand(spec, cfg) != 1 {
		t.Fatalf("default demand = %d", dope.Demand(spec, cfg))
	}
	cfg.Extents[0] = 6
	if dope.Demand(spec, cfg) != 6 {
		t.Fatalf("demand = %d", dope.Demand(spec, cfg))
	}
	work.Close()
}

func TestSetGoalSwitchesMechanismAtRuntime(t *testing.T) {
	// Start static, then hand the running system a throughput goal: the
	// administrator's §4 workflow. The pipeline must get rebalanced only
	// after the goal changes.
	work := queue.New[int](0)
	out := queue.New[int](4)
	var consumed atomic.Int64
	spec := &dope.NestSpec{Name: "switch", Alts: []*dope.AltSpec{{
		Name: "pipeline",
		Stages: []dope.StageSpec{
			{Name: "produce", Type: dope.SEQ},
			{Name: "consume", Type: dope.PAR},
		},
		Make: func(item any) (*dope.AltInstance, error) {
			out.Reopen() // drained and closed by the previous run's Fini
			return &dope.AltInstance{Stages: []dope.StageFns{
				{
					Fn: func(w *dope.Worker) dope.Status {
						if w.Suspending() {
							return dope.Suspended
						}
						v, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
						if errors.Is(err, queue.ErrClosed) {
							return dope.Finished
						}
						if !ok {
							return dope.Suspended
						}
						w.Begin() //dopevet:ignore suspendcheck,tokenhold suspension observed via DequeueWhile; sleep simulates stage work
						time.Sleep(100 * time.Microsecond)
						w.End()
						out.Enqueue(v)
						return dope.Executing
					},
					Load: func() float64 { return float64(work.Len()) },
					Fini: out.Close,
				},
				{
					Fn: func(w *dope.Worker) dope.Status {
						_, err := out.Dequeue()
						if err != nil {
							return dope.Finished
						}
						w.Begin() //dopevet:ignore suspendcheck,tokenhold drain stage exits via queue close; sleep simulates stage work
						time.Sleep(time.Millisecond)
						consumed.Add(1)
						w.End()
						return dope.Executing
					},
					Load: func() float64 { return float64(out.Len()) },
				},
			}}, nil
		},
	}}}
	d, err := dope.Create(spec, dope.StaticGoal(8),
		dope.WithControlInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		work.Enqueue(i)
	}
	time.Sleep(30 * time.Millisecond)
	if d.Reconfigurations() != 0 {
		t.Fatal("static goal must not reconfigure")
	}
	d.SetGoal(dope.MaxThroughput(8))
	if d.Goal().Name != "max-throughput" {
		t.Fatalf("goal = %q", d.Goal().Name)
	}
	deadline := time.Now().Add(3 * time.Second)
	for d.Reconfigurations() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if d.Reconfigurations() == 0 {
		t.Fatal("new goal never acted")
	}
	for i := 100; i < 200; i++ {
		work.Enqueue(i)
	}
	work.Close()
	if err := d.Destroy(); err != nil {
		t.Fatal(err)
	}
	if consumed.Load() != 200 {
		t.Fatalf("consumed %d of 200 across the goal switch", consumed.Load())
	}
}

func TestAdminHandlerServes(t *testing.T) {
	work := queue.New[int](0)
	var processed atomic.Int64
	d, err := dope.Create(counterSpec(work, &processed), dope.MaxThroughput(4))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.AdminHandlerWithCollector(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["contexts"].(float64) != 4 {
		t.Fatalf("stats = %v", stats)
	}
	// The catalog is wired: switching to fdp by name succeeds.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/mechanism",
		strings.NewReader(`{"name":"fdp"}`))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("PUT fdp: %d", r2.StatusCode)
	}
	if d.Mechanism() == nil || d.Mechanism().Name() != "FDP" {
		t.Fatal("catalog switch failed")
	}
	work.Close()
	d.Destroy()
}
