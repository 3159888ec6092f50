package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// p95 of 200 values is the 190th: exactly ten lie beyond it.
	if x, err := Percentile(seq(200), 95); err != nil || x != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, nil", x, err)
	}
	if _, err := Percentile(seq(199), 95); err == nil {
		t.Fatal("p95 of 199 samples leaves nine beyond it and must be refused")
	}
	if _, err := Percentile(seq(1000), 99); err != nil {
		t.Fatalf("p99 of 1000 samples leaves ten beyond it: %v", err)
	}
	if _, err := Percentile(seq(999), 99); err == nil {
		t.Fatal("p99 of 999 samples must be refused")
	}
	if x, err := Percentile(seq(21), 50); err != nil || x != 11 {
		t.Fatalf("median of 1..21 = %v, %v; want 11, nil", x, err)
	}
	if _, err := Percentile(seq(20), 5); err == nil {
		t.Fatal("p5 of 20 samples has nothing below it and must be refused")
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("an empty sample must be refused")
	}
	if got := PercentileLoose(seq(5), 99); got != 5 {
		t.Fatalf("loose p99 of 1..5 = %v, want 5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := Quartiles(seq(10))
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, %v", q1, q2, q3, err)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3, _ = Quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("quartiles of 3 1 4 1 5 = %v %v %v", q1, q2, q3)
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Fatal("one sample has no quartiles")
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := Mean(nil); m != 0 || math.IsNaN(m) {
		t.Fatalf("mean of nothing = %v, want 0", m)
	}
}
