package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestResponseRecorderEquation1(t *testing.T) {
	var r ResponseRecorder
	r.Observe(2*time.Second, 3*time.Second)
	r.Observe(0, 1*time.Second)
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.MeanWait(); got != 1 {
		t.Errorf("mean wait = %v", got)
	}
	if got := r.MeanExec(); got != 2 {
		t.Errorf("mean exec = %v", got)
	}
	// Response = wait + exec per Equation 1.
	if got := r.MeanResponse(); got != 3 {
		t.Errorf("mean response = %v", got)
	}
}

func TestResponseRecorderPercentile(t *testing.T) {
	var r ResponseRecorder
	for i := 1; i <= 100; i++ {
		r.Observe(0, time.Duration(i)*time.Millisecond)
	}
	p99, err := r.Percentile(99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p99-0.09901) > 0.001 {
		t.Errorf("p99 = %v", p99)
	}
	var empty ResponseRecorder
	if _, err := empty.Percentile(50); err == nil {
		t.Error("empty percentile should error")
	}
}

func TestResponseRecorderConcurrent(t *testing.T) {
	var r ResponseRecorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Observe(time.Millisecond, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 800 {
		t.Fatalf("count = %d", r.Count())
	}
}

func TestThroughputMeterOverall(t *testing.T) {
	m := &ThroughputMeter{}
	t0 := time.Unix(0, 0)
	m.Start(t0)
	for i := 1; i <= 10; i++ {
		m.Observe(t0.Add(time.Duration(i) * time.Second))
	}
	// 10 completions over 10 seconds.
	if got := m.Overall(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("overall = %v", got)
	}
	if m.Total() != 10 {
		t.Fatalf("total = %d", m.Total())
	}
}

func TestThroughputMeterSelfStart(t *testing.T) {
	m := &ThroughputMeter{}
	t0 := time.Unix(100, 0)
	m.Observe(t0)
	m.Observe(t0.Add(2 * time.Second))
	if got := m.Overall(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("overall = %v, want 1 (2 completions / 2s)", got)
	}
}

func TestThroughputMeterEmpty(t *testing.T) {
	m := &ThroughputMeter{}
	if m.Overall() != 0 || m.Total() != 0 {
		t.Fatal("empty meter should report zeros")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Len() != 0 {
		t.Fatal("fresh series non-empty")
	}
	s.Append(time.Second, 5)
	s.Append(2*time.Second, 7)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	ts, v := s.At(1)
	if ts != 2*time.Second || v != 7 {
		t.Fatalf("At(1) = %v, %v", ts, v)
	}
	vals := s.Values()
	if len(vals) != 2 || vals[0] != 5 {
		t.Fatalf("values = %v", vals)
	}
	vals[0] = 999 // must not alias internal storage
	if _, v := s.At(0); v != 5 {
		t.Fatal("Values aliases internal storage")
	}
}

func TestSeriesConcurrentAppend(t *testing.T) {
	var s Series
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				s.Append(time.Duration(j), float64(j))
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1000 {
		t.Fatalf("len = %d", s.Len())
	}
}
