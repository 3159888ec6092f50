package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.1)
	e.Observe(42)
	if e.Value() != 42 {
		t.Errorf("value = %v, want 42", e.Value())
	}
	if e.Count() != 1 {
		t.Errorf("count = %d, want 1", e.Count())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Observe(7)
	}
	if e.Value() != 7 {
		t.Errorf("value = %v, want 7", e.Value())
	}
}

func TestEWMATracksStep(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(0)
	for i := 0; i < 50; i++ {
		e.Observe(10)
	}
	if math.Abs(e.Value()-10) > 1e-6 {
		t.Errorf("value = %v, want ~10", e.Value())
	}
}

func TestEWMAAlphaClamping(t *testing.T) {
	e := NewEWMA(5) // clamped to 1: tracks the latest observation exactly
	e.Observe(1)
	e.Observe(9)
	if e.Value() != 9 {
		t.Errorf("alpha=1 EWMA should equal last observation, got %v", e.Value())
	}
	e2 := NewEWMA(-1) // clamped to tiny positive: effectively frozen at seed
	e2.Observe(3)
	e2.Observe(1000)
	if math.Abs(e2.Value()-3) > 0.01 {
		t.Errorf("tiny-alpha EWMA moved too much: %v", e2.Value())
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.2)
	e.Observe(5)
	e.Reset()
	if e.Value() != 0 || e.Count() != 0 {
		t.Error("reset did not clear state")
	}
	e.Observe(11)
	if e.Value() != 11 {
		t.Error("post-reset observation should seed")
	}
}

// Property: EWMA value always lies within [min, max] of the observations.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(alpha float64, xs []float64) bool {
		a := math.Mod(math.Abs(alpha), 1)
		if a == 0 {
			a = 0.5
		}
		e := NewEWMA(a)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			e.Observe(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if e.Count() == 0 {
			return true
		}
		return e.Value() >= lo-1e-6 && e.Value() <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordAgainstClosedForm(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Observe(x)
	}
	if w.Mean() != 5 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSmallCounts(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	w.Observe(3)
	if w.Count() != 1 || w.Mean() != 3 || w.Min() != 3 || w.Max() != 3 {
		t.Errorf("one sample: count %d mean %v min %v max %v", w.Count(), w.Mean(), w.Min(), w.Max())
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Observe(1)
	w.Observe(2)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 {
		t.Error("reset failed")
	}
}

// Property: Welford mean matches naive mean for well-conditioned inputs.
func TestWelfordMeanMatchesNaiveProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		clean := xs[:0:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
			w.Observe(x)
		}
		if len(clean) == 0 {
			return true
		}
		naive := Mean(clean)
		scale := 1.0
		if math.Abs(naive) > 1 {
			scale = math.Abs(naive)
		}
		return math.Abs(w.Mean()-naive)/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
