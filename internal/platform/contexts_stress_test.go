package platform

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestContextsNoLostWakeup pins Acquire's half of the pool's contract: an
// Acquire never sleeps through a free token. Each round starts n
// goroutines that acquire at once and hold until every one of them has a
// token, with no Release in between, so an acquirer that went to sleep
// while a token was still free would never be woken and the round would
// hang. A second phase churns many goroutines through Acquire, TryAcquire
// and Release and checks the pool never overfills and ends balanced.
// Meant for -race as well as the plain run.
func TestContextsNoLostWakeup(t *testing.T) {
	// 32 tokens over 8 shards: four per shard, so two acquirers can race
	// on one shard and leave a token behind in it.
	const n = 32
	deadline := time.After(30 * time.Second)
	for round := 0; round < 200; round++ {
		c := NewContexts(n)
		var got sync.WaitGroup
		got.Add(n)
		release := make(chan struct{})
		var done sync.WaitGroup
		for g := 0; g < n; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				c.Acquire()
				got.Done()
				<-release
				c.Release()
			}()
		}
		all := make(chan struct{})
		go func() { got.Wait(); close(all) }()
		select {
		case <-all:
		case <-deadline:
			t.Fatalf("round %d: %d of %d acquirers still waiting with %d tokens free",
				round, c.Blocked(), n, c.Idle())
		}
		close(release)
		done.Wait()
		if c.Busy() != 0 || c.Blocked() != 0 {
			t.Fatalf("round %d: busy %d, blocked %d after every release", round, c.Busy(), c.Blocked())
		}
	}

	const tokens, workers, iters = 3, 4 * 8, 2000
	c := NewContexts(tokens)
	var held atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (g+i)%4 == 0 {
					if !c.TryAcquire() {
						continue
					}
				} else {
					c.Acquire()
				}
				if h := held.Add(1); h > tokens {
					t.Errorf("%d holders of %d tokens", h, tokens)
				}
				if i%16 == 0 {
					runtime.Gosched()
				}
				held.Add(-1)
				c.Release()
			}
		}(g)
	}
	churned := make(chan struct{})
	go func() { wg.Wait(); close(churned) }()
	select {
	case <-churned:
	case <-time.After(30 * time.Second):
		t.Fatalf("churn did not finish: %d blocked, %d busy", c.Blocked(), c.Busy())
	}
	if c.Busy() != 0 || c.Blocked() != 0 || c.Peak() > tokens {
		t.Fatalf("after churn: busy %d, blocked %d, peak %d of %d", c.Busy(), c.Blocked(), c.Peak(), tokens)
	}
}
