package tenancy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestAllocateProperties checks the quota split on seeded random claim sets:
//
//   - Σ grant <= capacity;
//   - each grant is >= min(Min, what the floors before it left) and <= Max;
//   - if Σ grant < capacity, every claim sits at Max;
//   - a lower tier rises above its floor only when every higher-tier claim
//     has reached its clamped demand;
//   - within a tier, claims below their clamped demand are within one
//     context of equal grant/weight;
//   - the split does not depend on the order of the claims.
func TestAllocateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	weights := []float64{0.5, 1, 1, 2, 3}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		claims := make([]Claim, n)
		for i, k := range rng.Perm(n) {
			lo := rng.Intn(5)
			claims[i] = Claim{
				Name:     fmt.Sprintf("t%d", k),
				Priority: rng.Intn(3),
				Weight:   weights[rng.Intn(len(weights))],
				Min:      lo,
				Max:      max(1, lo+rng.Intn(11)),
				Demand:   rng.Intn(16),
			}
		}
		capacity := rng.Intn(41)
		grant := Allocate(claims, capacity)
		if err := checkAllocation(claims, capacity, grant); err != nil {
			t.Fatalf("trial %d: capacity %d, claims %+v, grants %v: %v", trial, capacity, claims, grant, err)
		}

		perm := rng.Perm(n)
		shuffled := make([]Claim, n)
		for i, j := range perm {
			shuffled[i] = claims[j]
		}
		for i, g := range Allocate(shuffled, capacity) {
			if g != grant[perm[i]] {
				t.Fatalf("trial %d: %s gets %d after a shuffle, %d before", trial, shuffled[i].Name, g, grant[perm[i]])
			}
		}
	}
}

func checkAllocation(claims []Claim, capacity int, grant []int) error {
	order := make([]int, len(claims))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := claims[order[a]], claims[order[b]]
		if ca.Priority != cb.Priority {
			return ca.Priority > cb.Priority
		}
		return ca.Name < cb.Name
	})
	floor := make([]int, len(claims))
	demand := make([]int, len(claims))
	left, total := capacity, 0
	for _, i := range order {
		c := claims[i]
		floor[i] = min(c.Min, left)
		left -= floor[i]
		demand[i] = min(max(c.Demand, c.Min), c.Max)
		total += grant[i]
		if grant[i] < floor[i] || grant[i] > c.Max {
			return fmt.Errorf("%s: grant %d outside [%d, %d]", c.Name, grant[i], floor[i], c.Max)
		}
	}
	if total > capacity {
		return fmt.Errorf("granted %d of %d", total, capacity)
	}
	for i, c := range claims {
		if total < capacity && grant[i] < c.Max {
			return fmt.Errorf("%d contexts idle while %s sits at %d < Max %d", capacity-total, c.Name, grant[i], c.Max)
		}
		if grant[i] > floor[i] {
			for j, h := range claims {
				if h.Priority > c.Priority && grant[j] < demand[j] {
					return fmt.Errorf("%s (tier %d) above its floor while %s (tier %d) is at %d < demand %d",
						c.Name, c.Priority, h.Name, h.Priority, grant[j], demand[j])
				}
			}
		}
	}
	const eps = 1e-9
	for i, c := range claims {
		for j, d := range claims {
			if i == j || c.Priority != d.Priority || grant[i] >= demand[i] || grant[j] >= demand[j] || grant[j] <= floor[j] {
				continue
			}
			if float64(grant[j]-1)/d.Weight > float64(grant[i])/c.Weight+eps {
				return fmt.Errorf("%s at %d/%.1f and %s at %d/%.1f are more than one context apart",
					c.Name, grant[i], c.Weight, d.Name, grant[j], d.Weight)
			}
		}
	}
	return nil
}
