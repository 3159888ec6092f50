package admin

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dope/internal/metrics"
	"dope/internal/platform"
	"dope/internal/stats"
	"dope/internal/tenancy"
)

// seriesBody mirrors the metrics.Snapshot JSON shape as a client sees it.
type seriesBody struct {
	Now     float64                  `json:"now"`
	Cursor  uint64                   `json:"cursor"`
	Dropped uint64                   `json:"dropped"`
	Series  map[string][]stats.Point `json:"series"`
	Events  []metrics.DecisionEntry  `json:"events"`
	Tenants []metrics.TenantSample   `json:"tenants"`
}

func TestSeriesEndpointSingleTenant(t *testing.T) {
	e, work, _ := testExec(t)
	defer func() { work.Close(); e.Wait() }()
	col := metrics.NewCollector(256)
	defer col.Close()
	release := col.Attach(e, 5*time.Millisecond)
	defer release()
	srv := httptest.NewServer(HandlerWithCollector(e, nil, col))
	t.Cleanup(srv.Close)

	for i := 0; i < 50; i++ {
		work.Enqueue(i)
	}
	var got seriesBody
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/series", &got)
		if len(got.Series["stage/svc/consume/rate"]) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(got.Series["stage/svc/consume/rate"]) == 0 {
		t.Fatalf("no consume-rate points served; series: %d keys", len(got.Series))
	}
	if got.Cursor == 0 {
		t.Fatal("cursor missing from payload")
	}

	// Incremental fetch with the served cursor returns only newer points.
	var inc seriesBody
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/series?since="+strconv.FormatUint(got.Cursor, 10), &inc)
		if len(inc.Series) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, pts := range inc.Series {
		for _, p := range pts {
			if p.Seq <= got.Cursor {
				t.Fatalf("series %q returned stale point seq %d <= cursor %d", name, p.Seq, got.Cursor)
			}
		}
	}

	// A bad cursor is a 400; no collector is a 404.
	resp, err := http.Get(srv.URL + "/series?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: got %d, want 400", resp.StatusCode)
	}
	bare := httptest.NewServer(Handler(e, nil))
	t.Cleanup(bare.Close)
	resp, err = http.Get(bare.URL + "/series")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no collector: got %d, want 404", resp.StatusCode)
	}
}

func TestSeriesEndpointMultiTenant(t *testing.T) {
	arb := tenancy.New(platform.NewContexts(8),
		tenancy.WithTickInterval(2*time.Millisecond))
	t.Cleanup(arb.Close)
	col := metrics.NewCollector(256)
	t.Cleanup(col.Close)
	release := arb.AttachCollector(col, 5*time.Millisecond)
	t.Cleanup(release)
	srv := httptest.NewServer(MultiHandlerWithCollector(arb, nil, col))
	t.Cleanup(srv.Close)

	q, _ := register(t, arb, "alpha")
	defer q.Close()
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}

	var got seriesBody
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/series", &got)
		if len(got.Series["tenant/alpha/quota"]) > 0 && len(got.Tenants) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(got.Series["tenant/alpha/quota"]) == 0 {
		t.Fatal("no tenant quota series on the machine /series endpoint")
	}
	if len(got.Tenants) != 1 || got.Tenants[0].Name != "alpha" {
		t.Fatalf("tenant table = %+v", got.Tenants)
	}
	// The delegated per-tenant surface serves the same collector.
	var sub seriesBody
	getJSON(t, srv.URL+"/tenants/alpha/series", &sub)
	if sub.Cursor == 0 {
		t.Fatal("delegated /tenants/alpha/series served nothing")
	}
}

// TestStatsExportsStageRows pins the /stats audit: per-stage sojourn
// gauges and the Observed flag must be exported, not just the roll-ups.
func TestStatsExportsStageRows(t *testing.T) {
	e, work, consumed := testExec(t)
	defer func() { e.Wait() }()
	for i := 0; i < 200; i++ {
		work.Enqueue(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for consumed.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	srv := adminServer(t, e)
	var got struct {
		RejectedArrivals uint64       `json:"rejectedArrivals"`
		Stages           []stageStats `json:"stages"`
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/stats", &got)
		if len(got.Stages) == 2 && got.Stages[1].Observed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	work.Close()
	if len(got.Stages) != 2 {
		t.Fatalf("stages rows = %+v, want produce+consume", got.Stages)
	}
	byName := map[string]stageStats{}
	for _, s := range got.Stages {
		byName[s.Stage] = s
		if s.Nest != "svc" {
			t.Errorf("stage %s has nest %q, want svc", s.Stage, s.Nest)
		}
	}
	if !byName["consume"].Observed {
		t.Error("consume stage never marked Observed in /stats")
	}
	if byName["consume"].SojournSec < 0 {
		t.Error("negative sojourn gauge")
	}
}

// TestMultiStatsExportsArbitrationChurn pins the machine /stats grant and
// revoke roll-ups plus the per-tenant Grants/Revokes rows.
func TestMultiStatsExportsArbitrationChurn(t *testing.T) {
	arb := tenancy.New(platform.NewContexts(8),
		tenancy.WithTickInterval(2*time.Millisecond))
	t.Cleanup(arb.Close)
	srv := httptest.NewServer(MultiHandlerWithCollector(arb, nil, nil))
	t.Cleanup(srv.Close)

	qa, _ := register(t, arb, "alpha")
	defer qa.Close()
	for i := 0; i < 100; i++ {
		qa.Enqueue(i)
	}
	var got struct {
		Grants  uint64                          `json:"grants"`
		Revokes uint64                          `json:"revokes"`
		Tenants map[string]tenancy.TenantStatus `json:"tenants"`
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/stats", &got)
		if got.Grants > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Grants == 0 {
		t.Fatal("machine /stats never showed a grant")
	}
	row, ok := got.Tenants["alpha"]
	if !ok || row.Grants == 0 {
		t.Fatalf("per-tenant grant count missing: %+v", got.Tenants)
	}
}
