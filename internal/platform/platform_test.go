package platform

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewVirtualClock(start)
	if !c.Now().Equal(start) {
		t.Fatal("start time wrong")
	}
	c.Advance(5 * time.Second)
	if got := c.Since(start); got != 5*time.Second {
		t.Fatalf("since = %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Since(start); got != 5*time.Second {
		t.Fatalf("negative advance moved clock: %v", got)
	}
}

func TestVirtualClockSet(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewVirtualClock(start)
	target := start.Add(time.Minute)
	c.Set(target)
	if !c.Now().Equal(target) {
		t.Fatal("set failed")
	}
	c.Set(start) // backwards: ignored
	if !c.Now().Equal(target) {
		t.Fatal("clock moved backwards")
	}
}

func TestWallClock(t *testing.T) {
	var c WallClock
	t0 := c.Now()
	if c.Since(t0) < 0 {
		t.Fatal("wall clock ran backwards")
	}
}

func TestVirtualTickerFiresOnAdvance(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	tk := c.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
		t.Fatal("ticker fired before any advance")
	default:
	}
	c.Advance(9 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("ticker fired before its period elapsed")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case at := <-tk.C():
		if !at.Equal(time.Unix(0, 0).Add(10 * time.Millisecond)) {
			t.Fatalf("tick time = %v", at)
		}
	default:
		t.Fatal("ticker did not fire at its period")
	}
}

func TestVirtualTickerCoalescesMissedTicks(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	// A jump across 100 periods delivers one (buffered) tick, like
	// time.Ticker with a lagging receiver.
	c.Advance(100 * time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("no tick after a long jump")
	}
	select {
	case <-tk.C():
		t.Fatal("missed ticks were queued instead of dropped")
	default:
	}
	// The next deadline is the first multiple after the jump.
	c.Advance(time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("ticker dead after a coalesced jump")
	}
}

func TestVirtualTickerStop(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	tk := c.NewTicker(time.Millisecond)
	tk.Stop()
	c.Advance(10 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestWallTicker(t *testing.T) {
	var c WallClock
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("wall ticker never fired")
	}
}

func TestContextsBounds(t *testing.T) {
	c := NewContexts(2)
	if c.N() != 2 || c.Idle() != 2 || c.Busy() != 0 {
		t.Fatal("fresh pool state wrong")
	}
	c.Acquire()
	c.Acquire()
	if c.Busy() != 2 || c.Idle() != 0 {
		t.Fatalf("busy=%d idle=%d", c.Busy(), c.Idle())
	}
	if c.TryAcquire() {
		t.Fatal("TryAcquire should fail on exhausted pool")
	}
	c.Release()
	if !c.TryAcquire() {
		t.Fatal("TryAcquire should succeed after release")
	}
	c.Release()
	c.Release()
	if c.Peak() != 2 {
		t.Fatalf("peak = %d", c.Peak())
	}
}

func TestContextsMinimumOne(t *testing.T) {
	c := NewContexts(0)
	if c.N() != 1 {
		t.Fatalf("n = %d, want 1", c.N())
	}
}

func TestContextsReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewContexts(1).Release()
}

func TestContextsBlockedCount(t *testing.T) {
	c := NewContexts(1)
	c.Acquire()
	done := make(chan struct{})
	go func() {
		c.Acquire()
		close(done)
	}()
	deadline := time.Now().Add(time.Second)
	for c.Blocked() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocked count never reached 1")
		}
		time.Sleep(time.Millisecond)
	}
	c.Release()
	<-done
	c.Release()
	if c.Blocked() != 0 {
		t.Fatalf("blocked = %d", c.Blocked())
	}
}

func TestContextsNeverExceedsN(t *testing.T) {
	const n, workers, iters = 4, 16, 50
	c := NewContexts(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Acquire()
				if b := c.Busy(); b > n {
					t.Errorf("busy = %d > %d", b, n)
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
	if c.Peak() > n {
		t.Fatalf("peak = %d > %d", c.Peak(), n)
	}
	if c.Acquires() != workers*iters {
		t.Fatalf("acquires = %d", c.Acquires())
	}
	if c.MeanOccupancy() <= 0 || c.MeanOccupancy() > n {
		t.Fatalf("mean occupancy = %v", c.MeanOccupancy())
	}
}

func TestFeaturesRegistry(t *testing.T) {
	f := NewFeatures()
	if _, err := f.Value(FeatureSystemPower); err == nil {
		t.Fatal("unknown feature should error")
	}
	f.Register(FeatureSystemPower, func() float64 { return 450 })
	v, err := f.Value(FeatureSystemPower)
	if err != nil || v != 450 {
		t.Fatalf("value = %v, %v", v, err)
	}
	f.Register(FeatureHardwareContexts, func() float64 { return 24 })
	names := f.Names()
	if len(names) != 2 || names[0] != FeatureHardwareContexts {
		t.Fatalf("names = %v", names)
	}
	f.Register(FeatureSystemPower, nil) // remove
	if _, err := f.Value(FeatureSystemPower); err == nil {
		t.Fatal("nil registration should remove")
	}
}

func TestFeaturesConcurrent(t *testing.T) {
	f := NewFeatures()
	f.Register("x", func() float64 { return 1 })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := f.Value("x"); err != nil {
					t.Errorf("value: %v", err)
				}
				f.Register("x", func() float64 { return 1 })
			}
		}()
	}
	wg.Wait()
}

// Property: for any interleaving of acquire/release pairs the pool never
// exceeds its capacity and ends balanced.
func TestContextsBalanceProperty(t *testing.T) {
	f := func(nRaw uint8, ops uint8) bool {
		n := int(nRaw)%8 + 1
		c := NewContexts(n)
		held := 0
		for i := 0; i < int(ops); i++ {
			if held < n && i%3 != 0 {
				c.Acquire()
				held++
			} else if held > 0 {
				c.Release()
				held--
			}
			if c.Busy() != held || c.Busy() > n {
				return false
			}
		}
		for held > 0 {
			c.Release()
			held--
		}
		return c.Busy() == 0 && c.Idle() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
