package sim

import "testing"

// TestRunTenantsZeroWeightIsWeightOne pins the class normalization: a class
// with Weight 0 splits the pool as weight 1, the way tenancy.Arbiter
// normalizes a TenantSpec, instead of dividing by zero in the water-fill.
// Two equally backlogged classes on 8 contexts must average 4 each.
func TestRunTenantsZeroWeightIsWeightOne(t *testing.T) {
	const exec = 0.02
	class := func(name string, weight int) TenantClass {
		return TenantClass{
			Name: name, Weight: weight, Min: 1,
			Rate: 2 * 8 / exec, Exec: exec, QueueCap: 20,
		}
	}
	res := RunTenants(TenantsConfig{
		Contexts: 8, Tasks: 400, Seed: 3, Arbitrated: true,
		Classes: []TenantClass{class("a", 0), class("b", 1)},
	})
	for _, r := range res {
		if r.MeanQuota < 3.9 || r.MeanQuota > 4.1 {
			t.Errorf("tenant %s mean quota %.2f, want 4 of 8 (both backlogged, equal weight)", r.Name, r.MeanQuota)
		}
	}
}
