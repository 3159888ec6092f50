package platform

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Contexts models a fixed set of hardware execution contexts (the paper's
// "hardware threads"). A task instance acquires one context for the duration
// of its CPU-intensive section; when all contexts are busy further acquires
// block, which is the oversubscription the Pthreads-OS baseline suffers and
// DoPE's DoP budgeting avoids.
//
// The pool is two-tier. The fast tier is a set of sharded token freelists:
// each shard packs its free-token count and its served-acquire count into
// one atomic word, so the common-case Acquire and Release are a single CAS
// with no lock and no allocation. The slow tier is the original mutex — it
// is taken only when a would-be acquirer finds every shard empty and must
// block, and it exists solely to park and wake those waiters; every token
// transfer, including the ones that resolve a blocked Acquire, still goes
// through the shard CAS, so the accounting getters stay exact.
//
// Acquire/Release are also usable in a non-blocking mode (TryAcquire) so the
// scheduler can detect saturation without stalling; TryAcquire may fail
// while a token is free, Acquire never sleeps while one is.
//
// Tokens are not pinned to a home shard: a token taken from shard 0 may be
// returned to shard 1. The overflow panic is therefore keyed to the global
// invariant sum(free_i) <= n — each shard caps free_i at cap_i with
// sum(cap_i) = n, so a Release that finds every shard at cap has proven the
// pool already holds all n tokens, exactly the condition under which the
// previous channel-based implementation panicked.
type Contexts struct {
	n      int
	shards []ctxShard
	caps   []uint64 // free-token capacity per shard; sum == n
	peak   atomic.Int64

	waitBlocked atomic.Int64 // acquirers currently blocked

	mu   sync.Mutex // slow tier: parks acquirers when all shards are empty
	cond *sync.Cond
}

// maxShards bounds the freelist fan-out. More shards spread CAS contention
// but lengthen the worst-case probe; eight covers the machine sizes the
// executive targets without making TryAcquire's full pass noticeable.
const maxShards = 8

// Shard word layout: low freeBits hold the shard's free-token count, the
// remaining high bits count acquires served by this shard. One successful
// CAS of (word - 1 + acquireInc) both takes a token and counts the acquire,
// so the Acquires() total is exact without a second atomic op.
const (
	freeBits   = 20
	freeMask   = (1 << freeBits) - 1
	acquireInc = 1 << freeBits
)

// ctxShard is padded out to a cache line so shards never false-share, and
// carries the occupancy integral for the acquires it served. The integral is
// sampled at one acquire in sampleEvery rather than every acquire — the
// sample decision falls out of the acquire counter already packed in the
// shard word, so the common-case acquire pays no extra atomic write for it.
type ctxShard struct {
	// The three atomics share the shard's line deliberately: busySum and
	// samples are written only by the 1-in-sampleEvery acquirer that just
	// won the CAS on word, so the writer already owns the line — splitting
	// them would triple the shard footprint for no contention win (layout
	// pinned by the BENCH_beginend.json trajectory).
	//dopevet:ignore padcheck sampled integral written by the CAS winner that owns the line
	word    atomic.Uint64 // packed free count + acquire count
	busySum atomic.Int64  // sum of global busy at sampled acquires
	samples atomic.Int64  // how many acquires were sampled
	_       [40]byte
}

// sampleEvery subsamples the occupancy integral: shard acquire counts 1,
// 1+sampleEvery, 1+2*sampleEvery, ... are sampled, so a shard's first acquire
// always is (MeanOccupancy is nonzero as soon as anything was acquired).
const sampleEvery = 8

// NewContexts returns a pool of n hardware contexts. n < 1 is treated as 1.
func NewContexts(n int) *Contexts {
	if n < 1 {
		n = 1
	}
	k := n
	if k > maxShards {
		k = maxShards
	}
	c := &Contexts{
		n:      n,
		shards: make([]ctxShard, k),
		caps:   make([]uint64, k),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < k; i++ {
		cap := uint64(n / k)
		if i < n%k {
			cap++
		}
		c.caps[i] = cap
		c.shards[i].word.Store(cap) // all tokens start free
	}
	return c
}

// N returns the number of hardware contexts.
func (c *Contexts) N() int { return c.n }

// takeToken claims a token from some shard and returns the shard index.
// One CAS attempt per shard per pass: a CAS loss means another context just
// moved on that shard, so the probe advances rather than fighting for the
// same cache line. A false return is a snapshot ("all shards looked empty"),
// the same guarantee the non-blocking channel receive used to give — and
// like it, it can miss a token (see TryAcquire).
// The second return is the winning shard's pre-CAS word: it carries both the
// free count (from which a single-shard pool derives the exact occupancy) and
// the acquire count (which decides occupancy sampling), so noteAcquire needs
// no extra loads beyond what the take already paid for.
func (c *Contexts) takeToken() (shard int, prev uint64, ok bool) {
	for i := range c.shards {
		w := c.shards[i].word.Load()
		if w&freeMask == 0 {
			continue
		}
		if c.shards[i].word.CompareAndSwap(w, w-1+acquireInc) {
			return i, w, true
		}
	}
	return 0, 0, false
}

// takeTokenExact is takeToken for the blocking slow path: a lost CAS is
// retried while the shard still shows a free token, so a false return
// means each shard was seen empty when the pass reached it.
func (c *Contexts) takeTokenExact() (shard int, prev uint64, ok bool) {
	for i := range c.shards {
		for {
			w := c.shards[i].word.Load()
			if w&freeMask == 0 {
				break
			}
			if c.shards[i].word.CompareAndSwap(w, w-1+acquireInc) {
				return i, w, true
			}
		}
	}
	return 0, 0, false
}

// putToken returns a token to the lowest shard with spare capacity. Unlike
// takeToken it retries a shard whose CAS was lost while the shard still has
// room: advancing only on observed-at-cap is what makes a false return a
// proof that sum(free) == n, i.e. a genuine overflow.
func (c *Contexts) putToken() bool {
	for i := range c.shards {
		for {
			w := c.shards[i].word.Load()
			if w&freeMask >= c.caps[i] {
				break // shard full; try the next one
			}
			if c.shards[i].word.CompareAndSwap(w, w+1) {
				return true
			}
		}
	}
	return false
}

// Acquire blocks until a context is free and claims it. It never sleeps
// while a token is free: see acquireSlow.
func (c *Contexts) Acquire() {
	if shard, prev, ok := c.takeToken(); ok {
		c.noteAcquire(shard, prev)
		return
	}
	c.acquireSlow()
}

// acquireSlow parks the caller until a token appears. Two orderings keep it
// from sleeping through a free token. The caller registers in waitBlocked
// before its locked re-check, and a releaser publishes its token before it
// reads waitBlocked; so a token the re-check's pass could not see was
// released by a Release that sees the registration. That Release
// broadcasts under mu, which the waiter holds from the re-check until
// cond.Wait parks it, so the broadcast cannot fall between the two and is
// not lost. The re-check itself retries a lost CAS (takeTokenExact), so it
// does not pass over a token left in a shard another acquirer just took
// from.
func (c *Contexts) acquireSlow() {
	c.waitBlocked.Add(1)
	c.mu.Lock()
	shard, prev, ok := c.takeTokenExact()
	for !ok {
		c.cond.Wait()
		shard, prev, ok = c.takeTokenExact()
	}
	c.mu.Unlock()
	c.waitBlocked.Add(-1)
	c.noteAcquire(shard, prev)
}

// TryAcquire claims a context if one is free and reports whether it did.
// Like sync.Mutex.TryLock it may fail spuriously: it may return false while
// a token is free, because its single pass over the shards moves on after
// losing a CAS to a concurrent acquire or release instead of retrying, and
// a token released into a shard the pass already left is not seen. A false
// return says the pool looked full, not that it was.
func (c *Contexts) TryAcquire() bool {
	if shard, prev, ok := c.takeToken(); ok {
		c.noteAcquire(shard, prev)
		return true
	}
	return false
}

// noteAcquire updates the occupancy statistics for the acquire that just
// succeeded (prev is the winning shard's pre-CAS word). Busy is derived from
// the shard words (n minus the free tokens), not kept as a separate counter,
// so Release stays a single CAS. With a single shard the taking CAS's own
// free count is the exact occupancy; with several the snapshot can sag below
// the true concurrent occupancy when another acquire's CAS has landed but its
// shard read here raced a release, so it is clamped to at least 1 (the
// sampling acquirer itself holds a token). It can never exceed n because free
// counts are nonnegative. The occupancy integral is only written for sampled
// acquires, and a multi-shard pool only scans its shards when the acquire is
// sampled or the peak watermark can still rise (peak < n): once the pool has
// been full, an unsampled acquire has nothing left to record.
func (c *Contexts) noteAcquire(shard int, prev uint64) {
	sampled := (prev>>freeBits)%sampleEvery == 0
	var b int64
	if len(c.shards) == 1 {
		b = int64(c.n) - int64(prev&freeMask) + 1
	} else if sampled || c.peak.Load() < int64(c.n) {
		b = c.sampleBusy()
	} else {
		return
	}
	if b > c.peak.Load() {
		c.bumpPeak(b)
	}
	if sampled {
		c.shards[shard].busySum.Add(b)
		c.shards[shard].samples.Add(1)
	}
}

// sampleBusy estimates the occupancy of a multi-shard pool for noteAcquire,
// clamped to at least 1 (the sampling acquirer holds a token). Split out so
// single-shard pools keep noteAcquire inlinable.
func (c *Contexts) sampleBusy() int64 {
	b := int64(c.n) - c.freeTokens()
	if b < 1 {
		b = 1
	}
	return b
}

// bumpPeak raises the peak-occupancy watermark to at least b. Split out of
// noteAcquire so the common no-new-peak path stays within the inliner's
// budget.
func (c *Contexts) bumpPeak(b int64) {
	for {
		p := c.peak.Load()
		if b <= p || c.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// freeTokens sums the shards' free counts. The per-shard loads are not a
// consistent cut, so the sum is a snapshot bounded by [0, n], exact whenever
// the pool is quiescent.
func (c *Contexts) freeTokens() int64 {
	var free int64
	for i := range c.shards {
		free += int64(c.shards[i].word.Load() & freeMask)
	}
	return free
}

// Release returns a context to the pool. Releasing more than was acquired
// panics: that is a scheduler bug, not a recoverable condition. The check is
// the putToken overflow proof itself — every shard at cap means all n tokens
// are already free, so this Release has no matching Acquire.
func (c *Contexts) Release() {
	if !c.putToken() {
		panic(fmt.Sprintf("platform: Release without matching Acquire (context pool overflow, n=%d)", c.n))
	}
	if c.waitBlocked.Load() > 0 {
		// The broadcast must run under mu so it cannot slip between a
		// waiter's failed re-check and its cond.Wait.
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// Busy returns how many contexts are currently claimed.
func (c *Contexts) Busy() int {
	b := int64(c.n) - c.freeTokens()
	if b < 0 {
		b = 0
	}
	return int(b)
}

// Idle returns how many contexts are currently free.
func (c *Contexts) Idle() int { return c.n - c.Busy() }

// Peak returns the maximum simultaneous occupancy observed.
func (c *Contexts) Peak() int { return int(c.peak.Load()) }

// Blocked returns how many acquirers are currently waiting for a context; a
// persistently positive value signals oversubscription.
func (c *Contexts) Blocked() int { return int(c.waitBlocked.Load()) }

// MeanOccupancy returns the average number of busy contexts over sampled
// acquires (one in sampleEvery per shard, always including the first), an
// acquire-weighted utilization proxy for the monitors.
func (c *Contexts) MeanOccupancy() float64 {
	var sum, samples int64
	for i := range c.shards {
		sum += c.shards[i].busySum.Load()
		samples += c.shards[i].samples.Load()
	}
	if samples == 0 {
		return 0
	}
	return float64(sum) / float64(samples)
}

// Acquires returns the total number of successful acquisitions.
func (c *Contexts) Acquires() uint64 {
	var acquires uint64
	for i := range c.shards {
		acquires += c.shards[i].word.Load() >> freeBits
	}
	return acquires
}
