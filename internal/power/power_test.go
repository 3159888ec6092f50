package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"dope/internal/platform"
)

func TestModelLinearRange(t *testing.T) {
	m := NewModel(24, 600, 800)
	if m.Watts(0) != 600 {
		t.Errorf("idle watts = %v", m.Watts(0))
	}
	if m.Watts(24) != 800 {
		t.Errorf("peak watts = %v", m.Watts(24))
	}
	if got := m.Watts(12); math.Abs(got-700) > 1e-9 {
		t.Errorf("midpoint watts = %v", got)
	}
}

func TestModelClamps(t *testing.T) {
	m := NewModel(4, 100, 200)
	if m.Watts(-3) != 100 {
		t.Errorf("negative busy: %v", m.Watts(-3))
	}
	if m.Watts(99) != 200 {
		t.Errorf("over-busy: %v", m.Watts(99))
	}
}

func TestDefaultModelMatchesPaperCalibration(t *testing.T) {
	// §8.2.3: 90% of peak total power == 60% of the dynamic CPU range.
	m := NewDefaultModel(24)
	target := 0.9 * m.Peak()
	frac := (target - m.Idle()) / (m.Peak() - m.Idle())
	if math.Abs(frac-0.6) > 1e-9 {
		t.Fatalf("90%% of peak sits at %.2f of dynamic range, want 0.60", frac)
	}
}

func TestBudgetToContexts(t *testing.T) {
	m := NewModel(24, 600, 800)
	cases := []struct {
		budget float64
		want   int
	}{
		{599, 0},   // below idle: nothing runs
		{600, 0},   // exactly idle: no dynamic headroom
		{700, 12},  // halfway up the range
		{800, 24},  // full budget
		{1000, 24}, // clamped at machine size
	}
	for _, c := range cases {
		if got := m.BudgetToContexts(c.budget); got != c.want {
			t.Errorf("BudgetToContexts(%v) = %d, want %d", c.budget, got, c.want)
		}
	}
}

func TestModelPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero contexts", func() { NewModel(0, 1, 2) })
	mustPanic("peak<idle", func() { NewModel(4, 5, 2) })
	mustPanic("negative idle", func() { NewModel(4, -1, 2) })
}

func TestPDURateLimit(t *testing.T) {
	clock := platform.NewVirtualClock(time.Unix(0, 0))
	val := 100.0
	pdu := NewPDU(func() float64 { return val }, DefaultSamplePeriod, clock)

	if got := pdu.Read(); got != 100 {
		t.Fatalf("first read = %v", got)
	}
	val = 200
	if got := pdu.Read(); got != 100 {
		t.Fatalf("read within period should be stale, got %v", got)
	}
	clock.Advance(DefaultSamplePeriod)
	if got := pdu.Read(); got != 200 {
		t.Fatalf("read after period = %v", got)
	}
	if pdu.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", pdu.Samples())
	}
}

func TestPDUSamplingRateMatchesPaper(t *testing.T) {
	// 13 samples per minute: over one simulated minute of 1 Hz polling we
	// must collect at most 13+1 fresh samples.
	clock := platform.NewVirtualClock(time.Unix(0, 0))
	pdu := NewPDU(func() float64 { return 1 }, DefaultSamplePeriod, clock)
	for i := 0; i < 60; i++ {
		pdu.Read()
		clock.Advance(time.Second)
	}
	if pdu.Samples() > 14 {
		t.Fatalf("samples = %d, want <= 14 per minute", pdu.Samples())
	}
	if pdu.Samples() < 12 {
		t.Fatalf("samples = %d, want >= 12 per minute", pdu.Samples())
	}
}

func TestPDUUnlimited(t *testing.T) {
	n := 0
	pdu := NewPDU(func() float64 { n++; return float64(n) }, 0, platform.WallClock{})
	pdu.Read()
	pdu.Read()
	if pdu.Samples() != 2 {
		t.Fatalf("unlimited PDU should sample every read, got %d", pdu.Samples())
	}
}

func TestPDUFeatureCB(t *testing.T) {
	f := platform.NewFeatures()
	pdu := NewPDU(func() float64 { return 42 }, 0, nil)
	f.Register(platform.FeatureSystemPower, pdu.FeatureCB())
	v, err := f.Value(platform.FeatureSystemPower)
	if err != nil || v != 42 {
		t.Fatalf("feature = %v, %v", v, err)
	}
}

// Property: Watts is monotone nondecreasing in busy and always within
// [idle, peak].
func TestModelMonotoneProperty(t *testing.T) {
	f := func(nRaw uint8, idleRaw, spanRaw uint16) bool {
		n := int(nRaw)%32 + 1
		idle := float64(idleRaw)
		peak := idle + float64(spanRaw)
		m := NewModel(n, idle, peak)
		prev := math.Inf(-1)
		for b := -1; b <= n+1; b++ {
			w := m.Watts(b)
			if w < idle-1e-9 || w > peak+1e-9 || w < prev-1e-9 {
				return false
			}
			prev = w
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BudgetToContexts never returns a context count whose draw
// exceeds the budget (when any count is feasible).
func TestBudgetSafetyProperty(t *testing.T) {
	f := func(nRaw uint8, budgetRaw uint16) bool {
		n := int(nRaw)%32 + 1
		m := NewModel(n, 600, 800)
		budget := float64(budgetRaw)
		k := m.BudgetToContexts(budget)
		if k == 0 {
			return true
		}
		return m.Watts(k) <= budget+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
