package admin

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
	"dope/internal/queue"
	"dope/internal/tenancy"
)

// tenantSpec builds a one-stage doall nest draining work for tenant tests.
func tenantSpec(name string, work *queue.Queue[int], processed *atomic.Int64) *core.NestSpec {
	return &core.NestSpec{Name: name, Alts: []*core.AltSpec{{
		Name:   "doall",
		Stages: []core.StageSpec{{Name: "worker", Type: core.PAR}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					if w.Suspending() {
						return core.Suspended
					}
					_, ok, err := work.DequeueWhile(func() bool { return !w.Suspending() }, 0)
					if errors.Is(err, queue.ErrClosed) {
						return core.Finished
					}
					if !ok {
						return core.Suspended
					}
					w.Begin() //dopevet:ignore suspendcheck suspension is observed via the DequeueWhile predicate
					processed.Add(1)
					w.End()
					return core.Executing
				},
				Load: func() float64 { return float64(work.Len()) },
			}}}, nil
		},
	}}}
}

func multiServer(t *testing.T) (*tenancy.Arbiter, *httptest.Server) {
	t.Helper()
	arb := tenancy.New(platform.NewContexts(8),
		tenancy.WithTickInterval(2*time.Millisecond))
	t.Cleanup(arb.Close)
	srv := httptest.NewServer(MultiHandlerWithCollector(arb, nil, nil))
	t.Cleanup(srv.Close)
	return arb, srv
}

func register(t *testing.T, arb *tenancy.Arbiter, name string) (*queue.Queue[int], *atomic.Int64) {
	t.Helper()
	q := queue.New[int](0)
	var n atomic.Int64
	if _, err := arb.Register(tenancy.TenantSpec{Name: name, Root: tenantSpec(name, q, &n)}); err != nil {
		t.Fatal(err)
	}
	return q, &n
}

func TestMultiTenantRowsKeyedByName(t *testing.T) {
	arb, srv := multiServer(t)
	qa, _ := register(t, arb, "alpha")
	qb, _ := register(t, arb, "beta")
	defer qa.Close()
	defer qb.Close()

	var rows map[string]tenancy.TenantStatus
	getJSON(t, srv.URL+"/tenants", &rows)
	if len(rows) != 2 {
		t.Fatalf("got %d tenant rows, want 2", len(rows))
	}
	for _, name := range []string{"alpha", "beta"} {
		st, ok := rows[name]
		if !ok {
			t.Fatalf("no row keyed %q: %v", name, rows)
		}
		if st.Name != name || st.State != "running" {
			t.Fatalf("row %q = %+v", name, st)
		}
	}

	// Per-tenant single-tenant surface reached through the stable name.
	var stats map[string]any
	getJSON(t, srv.URL+"/tenants/beta/stats", &stats)
	if _, ok := stats["contexts"]; !ok {
		t.Fatalf("per-tenant stats missing contexts: %v", stats)
	}
}

// TestMultiTenantRowsSurviveReRegister is the satellite regression: detail
// rows key on the registered tenant name, so unregistering and
// re-registering a tenant keeps its URL and its row identity — no index
// shifting, no stale executive.
func TestMultiTenantRowsSurviveReRegister(t *testing.T) {
	arb, srv := multiServer(t)
	qa, _ := register(t, arb, "alpha")
	defer qa.Close()
	qb, nb := register(t, arb, "beta")

	// Let beta do some work, then retire it.
	for i := 0; i < 10; i++ {
		qb.Enqueue(i)
	}
	qb.Close()
	deadline := time.Now().Add(5 * time.Second)
	for nb.Load() != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("beta processed %d/10", nb.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := arb.Unregister("beta"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/tenants/beta/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregistered tenant answered %d, want 404", resp.StatusCode)
	}
	var rows map[string]tenancy.TenantStatus
	getJSON(t, srv.URL+"/tenants", &rows)
	if _, ok := rows["beta"]; ok {
		t.Fatal("unregistered tenant still has a row")
	}
	if _, ok := rows["alpha"]; !ok {
		t.Fatal("alpha's row vanished with beta's unregistration")
	}

	// Re-register the same name: the same URLs reach the new executive.
	qb2, _ := register(t, arb, "beta")
	defer qb2.Close()
	getJSON(t, srv.URL+"/tenants", &rows)
	st, ok := rows["beta"]
	if !ok {
		t.Fatal("re-registered tenant has no row under its stable name")
	}
	if st.State != "running" {
		t.Fatalf("re-registered beta state = %q, want running", st.State)
	}
	var stats map[string]any
	getJSON(t, srv.URL+"/tenants/beta/stats", &stats)
	if up, ok := stats["uptimeSec"].(float64); !ok || up > 60 {
		t.Fatalf("re-registered beta's stats look stale: %v", stats)
	}
}

// TestMultiTenantHealthzIsolation pins the machine probe's containment
// semantics: one tenant failing degrades its own row but the machine stays
// 200 while any tenant is healthy.
func TestMultiTenantHealthzIsolation(t *testing.T) {
	arb, srv := multiServer(t)
	qa, _ := register(t, arb, "good")
	defer qa.Close()

	// A tenant that panics on its first item under the default FailStop.
	qBad := queue.New[int](0)
	bad := &core.NestSpec{Name: "bad", Alts: []*core.AltSpec{{
		Name:   "doall",
		Stages: []core.StageSpec{{Name: "worker", Type: core.PAR}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					if w.Begin() == core.Suspended {
						return core.Suspended
					}
					panic("meltdown")
				},
			}}}, nil
		},
	}}}
	bt, err := arb.Register(tenancy.TenantSpec{Name: "bad", Root: bad})
	if err != nil {
		t.Fatal(err)
	}
	qBad.Close()
	_ = bt.Exec().Wait()
	deadline := time.Now().Add(5 * time.Second)
	for bt.State() != tenancy.Failed {
		if time.Now().After(deadline) {
			t.Fatalf("bad tenant state = %v, want failed", bt.State())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status  string                  `json:"status"`
		Tenants map[string]tenantHealth `json:"tenants"`
	}
	decodeBody(t, resp, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("machine healthz = %d with a healthy tenant present, want 200", resp.StatusCode)
	}
	if body.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", body.Status)
	}
	if body.Tenants["bad"].Healthy || !body.Tenants["good"].Healthy {
		t.Fatalf("per-tenant health wrong: %+v", body.Tenants)
	}

	// The per-tenant probe still answers 503 for the failed tenant.
	resp2, err := http.Get(srv.URL + "/tenants/bad/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed tenant's own healthz = %d, want 503", resp2.StatusCode)
	}

	// Retire the healthy tenant; with only the failed one left the machine
	// probe flips to 503.
	qa.Close()
	if err := arb.Unregister("good"); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("machine healthz = %d with no healthy tenant, want 503", resp3.StatusCode)
	}
}

func decodeBody(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}
