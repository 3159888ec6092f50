package tenancy

import "time"

// WithPowerBudget sets the machine-wide watt budget split into per-tenant
// sub-budgets in proportion to their grants.
func WithPowerBudget(watts float64) Option {
	return func(a *Arbiter) {
		if watts > 0 {
			a.watts = watts
		}
	}
}

// WithRevokeGrace sets how long a tenant may sit over its quota before the
// arbiter clamps its configuration in place.
func WithRevokeGrace(d time.Duration) Option {
	return func(a *Arbiter) {
		if d > 0 {
			a.revokeGrace = d
		}
	}
}

// WithEvictAfter sets how long a tenant may stay over quota before it is
// stopped outright.
func WithEvictAfter(d time.Duration) Option {
	return func(a *Arbiter) {
		if d > 0 {
			a.evictAfter = d
		}
	}
}
