package platform

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ContextPool is the executive-facing surface of a hardware-context token
// pool. *Contexts (the machine-wide sharded pool) implements it directly;
// *TenantPool implements it as a quota-bounded view over a shared *Contexts,
// so several executives can share one machine under an arbiter while each
// one's mechanisms keep seeing a pool sized to their own grant.
type ContextPool interface {
	// N is the pool size the owner may plan against. For a TenantPool this
	// is the live quota, so mechanisms that size themselves from
	// Report.Contexts track quota changes automatically.
	N() int
	// Acquire blocks until a context is available and claims it.
	Acquire()
	// TryAcquire claims a context if one is available without blocking.
	TryAcquire() bool
	// Release returns a context; releasing more than was acquired panics.
	Release()
	// Busy, Idle, Peak, Blocked, MeanOccupancy, and Acquires are the
	// occupancy statistics the monitors and admin surfaces read.
	Busy() int
	Idle() int
	Peak() int
	Blocked() int
	MeanOccupancy() float64
	Acquires() uint64
}

var (
	_ ContextPool = (*Contexts)(nil)
	_ ContextPool = (*TenantPool)(nil)
)

// TenantPool word layout: the low tpUsedBits hold the tenant's held-token
// count, the high bits hold its current quota. One CAS both checks
// used < quota and takes the slot, so the admission decision and the count
// update cannot be split by a concurrent quota change.
const (
	tpUsedBits = 32
	tpUsedMask = (1 << tpUsedBits) - 1
)

// TenantPool is one tenant's quota-bounded view of a shared Contexts pool.
// Acquire first claims a slot against the tenant's own quota (a CAS on the
// packed used|quota word) and only then takes a token from the shared pool;
// Release returns the shared token before decrementing the used count, so
// used is always an upper bound on the tenant's shared-pool holdings.
//
// Isolation invariant: as long as the arbiter keeps
// sum_i max(quota_i, used_i) <= shared.N(), a tenant whose quota admits an
// acquire always finds a free shared token, so one tenant's stalls, panics,
// or quota debt never block another tenant's Begin fast path. Waiters that
// exhaust their own quota park on the tenant's private condvar, never on the
// shared pool's.
//
// Quota changes (SetQuota) take effect immediately for admission; a quota
// lowered below the current used count simply stops admitting until Releases
// drain the debt — nothing is preempted here, revocation escalation is the
// arbiter's job.
type TenantPool struct {
	shared *Contexts

	word     atomic.Uint64 // packed used count (low) + quota (high)
	peak     atomic.Int64
	acquires atomic.Uint64
	busySum  atomic.Int64 // sum of used at sampled acquires
	samples  atomic.Int64

	waitBlocked atomic.Int64 // acquirers parked on this tenant's quota

	mu   sync.Mutex // parks quota-exhausted acquirers; see Contexts.acquireSlow
	cond *sync.Cond
}

// NewTenantPool returns a quota-bounded view of shared. The quota is clamped
// to [0, shared.N()]; a zero quota admits nothing until SetQuota raises it.
func NewTenantPool(shared *Contexts, quota int) *TenantPool {
	t := &TenantPool{shared: shared}
	t.cond = sync.NewCond(&t.mu)
	t.word.Store(uint64(clampQuota(quota, shared.N())) << tpUsedBits)
	return t
}

func clampQuota(q, n int) int {
	if q < 0 {
		return 0
	}
	if q > n {
		return n
	}
	return q
}

// N returns the tenant's current quota (the pool size its mechanisms should
// plan against).
func (t *TenantPool) N() int { return int(t.word.Load() >> tpUsedBits) }

// Quota is N under its arbitration name.
func (t *TenantPool) Quota() int { return t.N() }

// SetQuota installs a new quota, clamped to [0, shared.N()]. Raising the
// quota wakes parked acquirers; lowering it below the current used count
// leaves the overage to drain through Releases.
func (t *TenantPool) SetQuota(q int) {
	nq := uint64(clampQuota(q, t.shared.N()))
	for {
		w := t.word.Load()
		if t.word.CompareAndSwap(w, w&tpUsedMask|nq<<tpUsedBits) {
			if nq > w>>tpUsedBits && t.waitBlocked.Load() > 0 {
				t.mu.Lock()
				t.cond.Broadcast()
				t.mu.Unlock()
			}
			return
		}
	}
}

// takeQuota claims one slot against the quota and returns the resulting used
// count (the tenant's exact occupancy, used for peak/mean accounting). A
// false return means used >= quota at some instant — the tenant is at its
// grant, not that the machine is busy.
func (t *TenantPool) takeQuota() (used int64, ok bool) {
	for {
		w := t.word.Load()
		if w&tpUsedMask >= w>>tpUsedBits {
			return 0, false
		}
		if t.word.CompareAndSwap(w, w+1) {
			return int64(w&tpUsedMask) + 1, true
		}
	}
}

// Acquire blocks until the tenant's quota admits the caller, then claims a
// token from the shared pool. Under the arbiter's isolation invariant the
// shared claim never blocks; without an arbiter (overcommitted hand-built
// quotas) it degrades to waiting on the shared pool like everyone else.
func (t *TenantPool) Acquire() {
	used, ok := t.takeQuota()
	if !ok {
		used = t.acquireSlow()
	}
	t.shared.Acquire()
	t.noteAcquire(used)
}

// acquireSlow parks the caller until quota admits it, mirroring
// Contexts.acquireSlow: registering in waitBlocked before the locked
// re-check closes the lost-wakeup window against Release and SetQuota.
func (t *TenantPool) acquireSlow() int64 {
	t.waitBlocked.Add(1)
	t.mu.Lock()
	used, ok := t.takeQuota()
	for !ok {
		t.cond.Wait()
		used, ok = t.takeQuota()
	}
	t.mu.Unlock()
	t.waitBlocked.Add(-1)
	return used
}

// TryAcquire claims a context if the quota and the shared pool both admit
// one. A quota slot taken against a shared pool that turns out to be empty
// is rolled back, so TryAcquire never strands quota.
func (t *TenantPool) TryAcquire() bool {
	used, ok := t.takeQuota()
	if !ok {
		return false
	}
	if !t.shared.TryAcquire() {
		t.putQuota()
		return false
	}
	t.noteAcquire(used)
	return true
}

// Release returns the shared token first and only then decrements the used
// count: used stays an upper bound on the tenant's shared holdings, so a
// waiter admitted by the decrement always finds the token already free.
func (t *TenantPool) Release() {
	t.shared.Release()
	t.putQuota()
	if t.waitBlocked.Load() > 0 {
		// Broadcast under mu so the wakeup cannot slip between a waiter's
		// failed re-check and its cond.Wait.
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

func (t *TenantPool) putQuota() {
	for {
		w := t.word.Load()
		if w&tpUsedMask == 0 {
			panic(fmt.Sprintf("platform: TenantPool Release without matching Acquire (quota=%d)", w>>tpUsedBits))
		}
		if t.word.CompareAndSwap(w, w-1) {
			return
		}
	}
}

// noteAcquire maintains the occupancy statistics. used is exact (it came out
// of the winning CAS), so peak needs no clamping; the mean integral is
// subsampled one acquire in sampleEvery, always including the first.
func (t *TenantPool) noteAcquire(used int64) {
	a := t.acquires.Add(1)
	for {
		p := t.peak.Load()
		if used <= p || t.peak.CompareAndSwap(p, used) {
			break
		}
	}
	if (a-1)%sampleEvery == 0 {
		t.busySum.Add(used)
		t.samples.Add(1)
	}
}

// Busy returns how many contexts the tenant currently holds (including any
// over-quota debt still draining after a revocation).
func (t *TenantPool) Busy() int { return int(t.word.Load() & tpUsedMask) }

// Idle returns how much of the quota is currently unclaimed.
func (t *TenantPool) Idle() int {
	w := t.word.Load()
	idle := int(w>>tpUsedBits) - int(w&tpUsedMask)
	if idle < 0 {
		return 0
	}
	return idle
}

// OverQuota returns how far the tenant's holdings exceed its quota — nonzero
// only while a lowered quota's debt drains.
func (t *TenantPool) OverQuota() int {
	w := t.word.Load()
	over := int(w&tpUsedMask) - int(w>>tpUsedBits)
	if over < 0 {
		return 0
	}
	return over
}

// Peak returns the maximum simultaneous occupancy the tenant reached.
func (t *TenantPool) Peak() int { return int(t.peak.Load()) }

// Blocked returns how many of the tenant's acquirers are parked on its
// quota. Blocking on the shared pool (an arbiter invariant violation or an
// arbiter-less overcommit) shows up on shared.Blocked instead.
func (t *TenantPool) Blocked() int { return int(t.waitBlocked.Load()) }

// MeanOccupancy returns the tenant's average held contexts over sampled
// acquires.
func (t *TenantPool) MeanOccupancy() float64 {
	samples := t.samples.Load()
	if samples == 0 {
		return 0
	}
	return float64(t.busySum.Load()) / float64(samples)
}

// Acquires returns the tenant's total successful acquisitions.
func (t *TenantPool) Acquires() uint64 { return t.acquires.Load() }
