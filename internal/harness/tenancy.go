package harness

import (
	"fmt"

	"dope/internal/sim"
)

// Multi-tenant isolation sweep (simulator): three tenants with mixed goals
// share one 24-context machine. Tenant A is the injected misbehaver — a
// batch workload offered at 2x the capacity of its share, with 1% of its
// jobs panicking mid-service — while B (latency) and C (throughput) are
// offered steady load their guaranteed floors can absorb. Each arm replays
// identical arrival streams (same seeds), so the p99 ratios isolate the
// sharing regime itself.
const (
	tenantsCtx   = 24
	tenantsExec  = 0.02 // 20ms sequential jobs
	tenantsTasks = 400  // arrivals per tenant at scale 1
	tenantsSeed  = 11
)

// tenantClasses builds the three tenants. Floors: B 12, C 8, A 2 (surplus 2
// that work-conservation hands to whoever demands it — in practice A,
// which is always backlogged). A's offered rate is 2x what its ~4 granted
// contexts can serve; its bounded queue sheds the excess.
func tenantClasses() []sim.TenantClass {
	return []sim.TenantClass{
		{
			Name: "A", Goal: "batch (misbehaving)",
			Weight: 1, Min: 2,
			// 2x the whole machine's capacity: without quotas A can
			// saturate the pool on its own.
			Rate:      2 * tenantsCtx / tenantsExec,
			Exec:      tenantsExec,
			PanicRate: 0.01,
			QueueCap:  50,
		},
		{
			Name: "B", Goal: "latency",
			Weight: 2, Min: 12,
			Rate: 0.33 * 12 / tenantsExec, // comfortably inside the floor
			Exec: tenantsExec,
		},
		{
			Name: "C", Goal: "throughput",
			Weight: 1, Min: 8,
			Rate: 0.30 * 8 / tenantsExec,
			Exec: tenantsExec,
		},
	}
}

// Tenants regenerates the multi-tenant isolation figure.
func Tenants(scale float64) *Table {
	t, _ := tenantsRun(scale)
	return t
}

// tenantsRaw carries the unformatted per-arm results for the acceptance
// test: each arm's results and the solo p99 baselines.
type tenantsRaw struct {
	solo       map[string]sim.TenantResult
	freeForAll []sim.TenantResult
	arbitrated []sim.TenantResult
}

func tenantsRun(scale float64) (*Table, *tenantsRaw) {
	tasks := int(float64(tenantsTasks) * scale)
	if tasks < 50 {
		tasks = 50
	}
	classes := tenantClasses()
	cfg := func(arbitrated bool, cls []sim.TenantClass) sim.TenantsConfig {
		return sim.TenantsConfig{
			Contexts:   tenantsCtx,
			Tasks:      tasks,
			Seed:       tenantsSeed,
			Arbitrated: arbitrated,
			Classes:    cls,
		}
	}
	raw := &tenantsRaw{solo: map[string]sim.TenantResult{}}
	// Solo baselines: each tenant alone on the machine, same arrival
	// stream. Seeds are per-class-index, so solo runs reuse index 0.
	for _, cl := range classes {
		res := sim.RunTenants(cfg(true, []sim.TenantClass{cl}))
		raw.solo[cl.Name] = res[0]
	}
	raw.freeForAll = sim.RunTenants(cfg(false, classes))
	raw.arbitrated = sim.RunTenants(cfg(true, classes))

	t := &Table{
		ID:     "tenants",
		Title:  "EXTENSION: multi-tenant isolation — arbitrated quotas vs free-for-all",
		Header: []string{"arm", "tenant", "goal", "quota", "completed", "shed", "panics", "p99 ms", "vs solo"},
		Notes: []string{
			fmt.Sprintf("3 tenants on %d shared contexts; A offered 2x the machine's capacity with 1%% mid-service panics (retried), B/C steady load under their floors", tenantsCtx),
			"identical arrival streams in every arm: the vs-solo column isolates the sharing regime",
			"claim: under arbitration B and C hold p99 within 1.2x of their solo baselines; in the free-for-all A's backlog drags both past it",
		},
	}
	addRows := func(arm string, results []sim.TenantResult) {
		for _, res := range results {
			vs := "-"
			if base, ok := raw.solo[res.Name]; ok && base.P99 > 0 && arm != "solo" {
				vs = fx(res.P99 / base.P99)
			}
			t.Rows = append(t.Rows, []string{
				arm, res.Name, res.Goal, f1(res.MeanQuota),
				fmt.Sprint(res.Completed), fmt.Sprint(res.Shed), fmt.Sprint(res.Panics),
				ms(res.P99), vs,
			})
		}
	}
	solos := make([]sim.TenantResult, 0, len(classes))
	for _, cl := range classes {
		solos = append(solos, raw.solo[cl.Name])
	}
	addRows("solo", solos)
	addRows("free-for-all", raw.freeForAll)
	addRows("arbitrated", raw.arbitrated)
	return t, raw
}
