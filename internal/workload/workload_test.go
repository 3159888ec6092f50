package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestArrivalsMeanRate(t *testing.T) {
	const rate = 50.0 // tasks/sec
	a := NewArrivals(rate, 1)
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += a.Next()
	}
	gotRate := float64(n) / total.Seconds()
	if math.Abs(gotRate-rate)/rate > 0.05 {
		t.Fatalf("empirical rate = %.2f, want ~%.2f", gotRate, rate)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := NewArrivals(10, 42)
	b := NewArrivals(10, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewArrivals(10, 43)
	same := true
	aa := NewArrivals(10, 42)
	for i := 0; i < 10; i++ {
		if aa.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestArrivalsGapsPositive(t *testing.T) {
	a := NewArrivals(1000, 7)
	for i := 0; i < 1000; i++ {
		if g := a.Next(); g <= 0 {
			t.Fatalf("gap %d = %v", i, g)
		}
	}
}

func TestArrivalsPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArrivals(0, 1)
}

func TestLoadFactorRate(t *testing.T) {
	lf := LoadFactor(0.8)
	if got := lf.RateFor(100); got != 80 {
		t.Fatalf("rate = %v", got)
	}
}

func TestMaxThroughput(t *testing.T) {
	if got := MaxThroughput(500, 100*time.Second); got != 5 {
		t.Fatalf("max throughput = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero runtime")
		}
	}()
	MaxThroughput(1, 0)
}

func TestSizesBounds(t *testing.T) {
	s := NewSizes(100, 0.2, 9)
	for i := 0; i < 1000; i++ {
		v := s.Next()
		if v < 80-1e-9 || v > 120+1e-9 {
			t.Fatalf("size %v outside jitter band", v)
		}
	}
}

func TestSizesNoJitter(t *testing.T) {
	s := NewSizes(50, 0, 1)
	for i := 0; i < 10; i++ {
		if s.Next() != 50 {
			t.Fatal("zero jitter must return base exactly")
		}
	}
}

func TestSizesJitterClamped(t *testing.T) {
	s := NewSizes(10, 5 /* clamped to .99 */, 1)
	for i := 0; i < 100; i++ {
		if v := s.Next(); v <= 0 {
			t.Fatalf("size must stay positive, got %v", v)
		}
	}
}

// Property: arrival gaps are always positive for any seed and sane rate.
func TestGapsPositiveProperty(t *testing.T) {
	f := func(seed int64, rateRaw uint16) bool {
		rate := float64(rateRaw%1000) + 0.5
		a := NewArrivals(rate, seed)
		for i := 0; i < 50; i++ {
			if a.Next() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
