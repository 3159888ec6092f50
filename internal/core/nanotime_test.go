package core

import (
	"testing"
	"time"

	"dope/internal/platform"
)

// Under the wall clock, nowNanos (the rebased monotonic counter) must agree
// with time.Now to well under the monitor control interval and never run
// backwards between consecutive reads; under any other clock it must be
// exactly that clock's reading, even when a virtual clock steps back.
func TestNowNanosTracksClock(t *testing.T) {
	e, err := New(misuseSpec(func(*Worker) Status { return Finished }))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d := e.nowNanos() - time.Now().UnixNano()
		if d < 0 {
			d = -d
		}
		if d > int64(time.Millisecond) {
			t.Fatalf("nowNanos diverges from the wall clock by %v", time.Duration(d))
		}
		time.Sleep(time.Millisecond)
	}
	prev := e.nowNanos()
	for i := 0; i < 100_000; i++ {
		now := e.nowNanos()
		if now < prev {
			t.Fatalf("nowNanos went backwards: %d -> %d", prev, now)
		}
		prev = now
	}

	clk := platform.NewVirtualClock(time.Unix(1000, 0))
	v, err := New(misuseSpec(func(*Worker) Status { return Finished }), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func(){
		func() {},
		func() { clk.Advance(1500 * time.Microsecond) },
		func() { clk.Set(time.Unix(999, 7)) },
	} {
		step()
		if got, want := v.nowNanos(), clk.Now().UnixNano(); got != want {
			t.Fatalf("nowNanos = %d under a virtual clock reading %d", got, want)
		}
	}
}

var clockSink int64

func BenchmarkNanotime(b *testing.B) {
	var x int64
	for i := 0; i < b.N; i++ {
		x += nanotime()
	}
	clockSink = x
}
