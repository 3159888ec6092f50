package harness

import (
	"testing"

	"dope/internal/sim"
)

// TestTenantsIsolationAcceptance is the PR's acceptance check for the
// multi-tenant isolation experiment: with tenant A offered 2x the machine's
// capacity and 1% of its jobs panicking, arbitration holds tenants B and C
// within 1.2x of their solo p99 baselines, while the free-for-all baseline
// demonstrably does not. The simulator is deterministic, so these are exact
// replays, not timing-sensitive measurements.
func TestTenantsIsolationAcceptance(t *testing.T) {
	tab, raw := tenantsRun(1)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 arms x 3 tenants)", len(tab.Rows))
	}

	// The isolation bound: B and C within 1.2x of solo under arbitration.
	for _, name := range []string{"B", "C"} {
		solo, ok := raw.solo[name]
		if !ok || solo.P99 <= 0 {
			t.Fatalf("tenant %s solo baseline missing: %+v", name, solo)
		}
		if r := raw.ratio(raw.arbitrated, name); r <= 0 || r > 1.2 {
			t.Fatalf("tenant %s arbitrated p99 ratio = %.2fx, want (0, 1.2]", name, r)
		}
		// The free-for-all shows why arbitration matters: the same
		// streams blow past the bound when A can hog the bare pool.
		if r := raw.ratio(raw.freeForAll, name); r <= 1.2 {
			t.Fatalf("tenant %s free-for-all p99 ratio = %.2fx, want > 1.2 (figure would be vacuous)", name, r)
		}
	}

	// The misbehaver pays its own bill: its bounded queue sheds the 2x
	// excess and its panics are contained as retries.
	var arbA *[3]int
	for _, res := range raw.arbitrated {
		if res.Name == "A" {
			arbA = &[3]int{res.Completed, res.Shed, res.Panics}
		}
		// Conservation per tenant: every arrival completes or is shed.
		if res.Completed+res.Shed != tenantsTasks {
			t.Fatalf("tenant %s: completed %d + shed %d != %d arrivals",
				res.Name, res.Completed, res.Shed, tenantsTasks)
		}
		if res.Name != "A" && res.Shed != 0 {
			t.Fatalf("well-behaved tenant %s shed %d items", res.Name, res.Shed)
		}
	}
	if arbA == nil {
		t.Fatal("tenant A missing from the arbitrated arm")
	}
	if arbA[1] == 0 {
		t.Fatal("tenant A shed nothing at 2x overload")
	}
	if arbA[2] == 0 {
		t.Fatal("tenant A recorded no panics at 1% injection")
	}
}

// ratio is an arm's p99 for the named tenant over its solo p99 (0 when
// either is missing).
func (r *tenantsRaw) ratio(arm []sim.TenantResult, name string) float64 {
	base, ok := r.solo[name]
	if !ok || base.P99 <= 0 {
		return 0
	}
	for _, res := range arm {
		if res.Name == name {
			return res.P99 / base.P99
		}
	}
	return 0
}
