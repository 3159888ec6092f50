package admin

import (
	"fmt"
	"net/http"
	"strings"

	"dope/internal/metrics"
	"dope/internal/tenancy"
)

// MultiHandlerWithCollector builds the administration handler for a machine
// running many tenants under a tenancy.Arbiter. Every tenant-facing route
// keys on the stable registered tenant name — never on registration order —
// so detail rows survive a tenant being unregistered and re-registered: the
// name resolves to whatever executive currently owns it at request time.
//
// Endpoints (JSON):
//
//	GET /tenants                 per-tenant status map keyed by tenant name
//	                             (state, quota, used, shed, rejected, watts)
//	ANY /tenants/<name>/<sub>    the single-tenant admin surface (report,
//	                             config, mechanism, stats, series, whatif,
//	                             healthz) of the named tenant's executive
//	GET /stats                   machine counters: shared pool occupancy,
//	                             admission rejections, arbitration churn
//	                             (grants/revokes), per-tenant roll-up
//	GET /series                  ring-buffered time series from an attached
//	                             collector (per-tenant quota/used/pressure,
//	                             arbitration decision log); ?since=<cursor>
//	                             for incremental fetch; 404 when col is nil
//	GET /healthz                 machine probe: one tenant's failure does
//	                             not fail the machine — 503 only when every
//	                             registered tenant is unhealthy; per-tenant
//	                             health is always in the detail body
//
// The collector is typically the one fed by Arbiter.AttachCollector. The
// per-tenant delegated surface shares it, so /tenants/<name>/series answers
// too.
func MultiHandlerWithCollector(arb *tenancy.Arbiter, mechs map[string]MechanismFactory, col *metrics.Collector) http.Handler {
	mux := http.NewServeMux()
	h := &multiState{arb: arb, mechs: mechs, col: col}
	mux.HandleFunc("/", h.index)
	mux.HandleFunc("/tenants", h.tenants)
	mux.HandleFunc("/tenants/", h.tenant)
	mux.HandleFunc("/stats", h.stats)
	mux.HandleFunc("/series", h.series)
	mux.HandleFunc("/healthz", h.healthz)
	return mux
}

type multiState struct {
	arb   *tenancy.Arbiter
	mechs map[string]MechanismFactory
	col   *metrics.Collector
}

func (h *multiState) series(w http.ResponseWriter, r *http.Request) {
	serveSeries(w, r, h.col)
}

func (h *multiState) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	names := []string{}
	for _, st := range h.arb.Tenants() {
		names = append(names, st.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"endpoints": []string{
			"GET /tenants", "ANY /tenants/<name>/<endpoint>",
			"GET /stats", "GET /series", "GET /tenants/<name>/series",
			"GET /healthz",
		},
		"tenants": names,
	})
}

// tenants serves the per-tenant status rows keyed by stable name.
func (h *multiState) tenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rows := map[string]tenancy.TenantStatus{}
	for _, st := range h.arb.Tenants() {
		rows[st.Name] = st
	}
	writeJSON(w, http.StatusOK, rows)
}

// tenant routes /tenants/<name>/<sub> to the named tenant's single-tenant
// admin surface. The name is resolved on every request, so after an
// unregister/re-register cycle the same URL reaches the new executive.
func (h *multiState) tenant(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/tenants/")
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" {
		h.tenants(w, r)
		return
	}
	t, ok := h.arb.Tenant(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no tenant named %q", name), http.StatusNotFound)
		return
	}
	inner := HandlerWithCollector(t.Exec(), h.mechs, h.col)
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + sub
	inner.ServeHTTP(w, r2)
}

func (h *multiState) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	pool := h.arb.Pool()
	perTenant := map[string]tenancy.TenantStatus{}
	var shed, rejected, grants, revokes uint64
	for _, st := range h.arb.Tenants() {
		perTenant[st.Name] = st
		shed += st.Shed
		rejected += st.Rejected
		grants += st.Grants
		revokes += st.Revokes
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"contexts":         pool.N(),
		"busyContexts":     pool.Busy(),
		"peakContexts":     pool.Peak(),
		"blockedAcquires":  pool.Blocked(),
		"powerBudget":      h.arb.PowerBudget(),
		"rejectedTenants":  h.arb.RejectedTenants(),
		"shedItems":        shed,
		"rejectedArrivals": rejected,
		"grants":           grants,
		"revokes":          revokes,
		"tenants":          perTenant,
	})
}

// tenantHealth is one tenant's row in the machine /healthz body.
type tenantHealth struct {
	State     string `json:"state"`
	Healthy   bool   `json:"healthy"`
	Quota     int    `json:"quota"`
	OverQuota int    `json:"overQuota"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Err       string `json:"err,omitempty"`
}

// healthz is the machine-level probe. Tenant-scoped containment shows up
// here deliberately: a failed, evicted, or erroring tenant degrades only its
// own row (probe it at /tenants/<name>/healthz for a per-tenant 503); the
// machine answers 503 only when every registered tenant is unhealthy, i.e.
// when there is no healthy tenant left to serve.
func (h *multiState) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rows := map[string]tenantHealth{}
	healthy := 0
	sts := h.arb.Tenants()
	for _, st := range sts {
		ok := st.Err == "" &&
			st.State != tenancy.Failed.String() &&
			st.State != tenancy.Evicted.String()
		if ok {
			healthy++
		}
		rows[st.Name] = tenantHealth{
			State: st.State, Healthy: ok,
			Quota: st.Quota, OverQuota: st.OverQuota,
			Shed: st.Shed, Rejected: st.Rejected, Err: st.Err,
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case len(sts) == 0:
		status = "idle"
	case healthy == 0:
		status, code = "failed", http.StatusServiceUnavailable
	case healthy < len(sts):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"healthy": healthy,
		"total":   len(sts),
		"tenants": rows,
	})
}
