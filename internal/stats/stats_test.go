package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Mean, Min and Max have no caller outside this package's tests; they live
// here until their tests retire with them.

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element of xs. It returns an error for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs. It returns an error for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err == nil {
		t.Error("Min(nil) should error")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) should error")
	}
	lo, err := Min([]float64{3, 1, 2})
	if err != nil || lo != 1 {
		t.Errorf("Min = %v, %v", lo, err)
	}
	hi, err := Max([]float64{3, 1, 2})
	if err != nil || hi != 3 {
		t.Errorf("Max = %v, %v", hi, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	p50, err := Percentile(xs, 50)
	if err != nil || p50 != 3 {
		t.Errorf("p50 = %v, %v", p50, err)
	}
	p0, _ := Percentile(xs, 0)
	if p0 != 1 {
		t.Errorf("p0 = %v", p0)
	}
	p100, _ := Percentile(xs, 100)
	if p100 != 5 {
		t.Errorf("p100 = %v", p100)
	}
	p25, _ := Percentile(xs, 25)
	if p25 != 2 {
		t.Errorf("p25 = %v", p25)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("negative percentile should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("percentile > 100 should error")
	}
}

func TestPercentileSingleElement(t *testing.T) {
	for _, p := range []float64{0, 33, 50, 100} {
		got, err := Percentile([]float64{7}, p)
		if err != nil || got != 7 {
			t.Errorf("Percentile([7], %v) = %v, %v", p, got, err)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	m, err := Median([]float64{9, 1, 5})
	if err != nil || m != 5 {
		t.Errorf("Median = %v, %v", m, err)
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		lo, _ := Min(clean)
		hi, _ := Max(clean)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(clean, p)
			if err != nil {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
