package monitor

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// twoStage builds the synthetic two-stage fixture: stage "fast" at 1 ms and
// stage "slow" at 4 ms per item, one worker each, with a known analytic
// bottleneck (slow).
func twoStage() []WhatIfInput {
	return []WhatIfInput{
		{Name: "fast", Parallel: true, Workers: 1, ServiceTime: 1e-3, Rate: 200, Queue: 1, Ready: true},
		{Name: "slow", Parallel: true, Workers: 1, ServiceTime: 4e-3, Rate: 200, Queue: 9, Ready: true},
	}
}

func TestWhatIfTwoStageBottleneck(t *testing.T) {
	rep := WhatIf(twoStage())
	if !rep.Valid {
		t.Fatalf("valid = false: %s", rep.Reason)
	}
	if rep.Bottleneck != "slow" {
		t.Fatalf("bottleneck = %q, want slow", rep.Bottleneck)
	}
	if rep.Stages[0].Name != "slow" {
		t.Fatalf("top-ranked = %q, want slow", rep.Stages[0].Name)
	}
	if !rep.Stages[0].Bottleneck {
		t.Fatal("top stage not flagged as bottleneck")
	}
	// Deep queues put the model in the bottleneck-limited regime: X = 1/D_slow
	// = 250/s; a second slow worker halves the demand, and the fast stage
	// (D = 1 ms) becomes the new bottleneck at 1000/s — but the population
	// bound caps the gain. Payoff must be positive and the slow stage's must
	// strictly exceed the fast stage's.
	if rep.Stages[0].PayoffDoP <= 0 {
		t.Fatalf("bottleneck payoff = %v, want > 0", rep.Stages[0].PayoffDoP)
	}
	var fast *WhatIfStage
	for i := range rep.Stages {
		if rep.Stages[i].Name == "fast" {
			fast = &rep.Stages[i]
		}
	}
	if fast.PayoffDoP >= rep.Stages[0].PayoffDoP {
		t.Fatalf("fast payoff %v not below slow payoff %v", fast.PayoffDoP, rep.Stages[0].PayoffDoP)
	}
	// Baseline model throughput: bottleneck bound 1/4ms = 250/s.
	if math.Abs(rep.Throughput-250) > 1 {
		t.Fatalf("model throughput = %v, want ~250", rep.Throughput)
	}
}

// ferretShaped mirrors the sim's ferret model: 6 stages, rank dominant, the
// paper's even static allocation. The analytic bottleneck is rank.
func ferretShaped() []WhatIfInput {
	base := 0.4e-3
	names := []string{"load", "segment", "extract", "index", "rank", "out"}
	times := []float64{0.5 * base, 1 * base, 2 * base, 4 * base, 14 * base, 0.5 * base}
	par := []bool{false, true, true, true, true, false}
	workers := []int{1, 5, 5, 5, 6, 1}
	in := make([]WhatIfInput, len(names))
	for i := range names {
		c := workers[i]
		in[i] = WhatIfInput{
			Name: names[i], Parallel: par[i], Workers: c,
			ServiceTime: times[i], Rate: float64(c) / times[i],
			Queue: 4, Ready: true,
		}
	}
	return in
}

func TestWhatIfFerretRanksRankStageFirst(t *testing.T) {
	rep := WhatIf(ferretShaped())
	if !rep.Valid {
		t.Fatalf("valid = false: %s", rep.Reason)
	}
	if rep.Bottleneck != "rank" {
		t.Fatalf("bottleneck = %q, want rank", rep.Bottleneck)
	}
	if rep.Stages[0].Name != "rank" {
		t.Fatalf("top-ranked = %q, want rank", rep.Stages[0].Name)
	}
	// Sequential stages can never receive a context.
	for _, st := range rep.Stages {
		if (st.Name == "load" || st.Name == "out") && st.PayoffDoP != 0 {
			t.Fatalf("SEQ stage %q has DoP payoff %v", st.Name, st.PayoffDoP)
		}
	}
}

func TestWhatIfNotReadyInvalidates(t *testing.T) {
	in := twoStage()
	in[1].Ready = false
	rep := WhatIf(in)
	if rep.Valid {
		t.Fatal("report with an unready stage must be invalid")
	}
	if rep.Reason == "" {
		t.Fatal("invalid report must carry a reason")
	}
}

func TestWhatIfZeroServiceInvalidates(t *testing.T) {
	in := twoStage()
	in[0].ServiceTime = 0
	rep := WhatIf(in)
	if rep.Valid {
		t.Fatal("report with a zero service time must be invalid")
	}
}

func TestWhatIfScrubsNonFinite(t *testing.T) {
	in := twoStage()
	in[1].ServiceTime = math.Inf(1)
	rep := WhatIf(in)
	if rep.Valid {
		t.Fatal("non-finite inputs must invalidate the report")
	}
	for _, st := range rep.Stages {
		for _, v := range []float64{st.Demand, st.Utilization, st.PayoffDoP, st.PayoffService} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("stage %q leaked a non-finite figure", st.Name)
			}
		}
	}
	// The scrub guarantee is load-bearing for the admin endpoint: the report
	// must always marshal.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestWhatIfMaxDoPCapsPayoff(t *testing.T) {
	in := twoStage()
	in[1].MaxDoP = 1 // slow stage already at its cap
	rep := WhatIf(in)
	for _, st := range rep.Stages {
		if st.Name == "slow" && st.PayoffDoP != 0 {
			t.Fatalf("capped stage has DoP payoff %v", st.PayoffDoP)
		}
	}
}

func TestWhatIfEmpty(t *testing.T) {
	rep := WhatIf(nil)
	if rep.Valid {
		t.Fatal("empty input must be invalid")
	}
}

func TestWhatIfThroughputOverride(t *testing.T) {
	in := twoStage()
	base := WhatIfThroughput(in, nil)
	if math.Abs(base-250) > 1 {
		t.Fatalf("base = %v, want ~250", base)
	}
	// Doubling the slow stage's width moves the bottleneck to 2 ms demand.
	boosted := WhatIfThroughput(in, []int{0, 2})
	if boosted <= base {
		t.Fatalf("boosted = %v, not above base %v", boosted, base)
	}
	// Sequential stages ignore overrides.
	seq := twoStage()
	seq[1].Parallel = false
	if got := WhatIfThroughput(seq, []int{0, 8}); got != WhatIfThroughput(seq, nil) {
		t.Fatalf("SEQ override changed the model: %v", got)
	}
}

// TestRateReadyOnFirstFold pins the attribution bugfix: completions recorded
// through the lock-free slot path must yield a non-zero Rate() on the very
// first fold (anchored at the stage's first window open), not only after a
// second control tick establishes an inter-completion gap.
func TestRateReadyOnFirstFold(t *testing.T) {
	s := newStageStats(0.5)
	s.ObserveWorkerStart()
	rec := s.NewSlotRecorder()

	t0 := time.Unix(100, 0).UnixNano()
	for i := 0; i < 10; i++ {
		begin := t0 + int64(i)*int64(10*time.Millisecond)
		end := begin + int64(10*time.Millisecond)
		rec.ObserveBegin(begin)
		rec.ObserveEnd(int64(10*time.Millisecond), end)
	}
	// First getter read = first fold. Ten completions over 100 ms of working
	// time: ~100/s, not 0.
	if got := s.Snapshot().Rate; math.Abs(got-100) > 5 {
		t.Fatalf("first-fold rate = %v, want ~100", got)
	}
	if got := s.Snapshot().MeanExecTime; math.Abs(got-0.010) > 1e-9 {
		t.Fatalf("first-fold mean exec = %v, want 0.010", got)
	}
	if !s.Snapshot().Observed {
		t.Fatal("stage with folded completions must report Observed")
	}
}

// TestObservedSentinel pins the not-ready sentinel: before any completion the
// getters return 0 and Observed() is false, so consumers can tell "no data"
// from "infinitely fast".
func TestObservedSentinel(t *testing.T) {
	s := newStageStats(0.5)
	if s.Snapshot().Observed {
		t.Fatal("fresh stage must not report Observed")
	}
	// An open window alone is not a completion.
	s.ObserveWorkerStart()
	rec := s.NewSlotRecorder()
	rec.ObserveBegin(time.Unix(5, 0).UnixNano())
	if s.Snapshot().Observed {
		t.Fatal("open window without completion must not report Observed")
	}
	if s.Snapshot().Rate != 0 || s.Snapshot().MeanExecTime != 0 {
		t.Fatal("unready stage getters must return 0")
	}
	rec.ObserveEnd(int64(time.Millisecond), time.Unix(5, 0).Add(time.Millisecond).UnixNano())
	if !s.Snapshot().Observed {
		t.Fatal("completion must flip Observed")
	}
}

// TestFirstFoldAnchorClearsOnReset pins that a worker-less pause clears the
// first-begin anchor along with the rest of the gap state: the next
// instance's first fold anchors at its own first window, not the old one.
func TestFirstFoldAnchorClearsOnReset(t *testing.T) {
	s := newStageStats(0.5)
	s.ObserveWorkerStart()
	rec := s.NewSlotRecorder()
	t0 := time.Unix(100, 0).UnixNano()
	rec.ObserveBegin(t0)
	rec.ObserveEnd(int64(10*time.Millisecond), t0+int64(10*time.Millisecond))
	rec.Release()
	s.ObserveWorkerExit(false) // workers -> 0 resets the gap state

	// An hour later a new instance runs one 10 ms iteration. If the stale
	// anchor survived, the fold would observe ~1/3600 s and crater the EWMA.
	later := t0 + int64(time.Hour)
	s.ObserveWorkerStart()
	rec2 := s.NewSlotRecorder()
	rec2.ObserveBegin(later)
	rec2.ObserveEnd(int64(10*time.Millisecond), later+int64(10*time.Millisecond))
	if got := s.Snapshot().Rate; math.Abs(got-100) > 5 {
		t.Fatalf("rate after pause = %v, want ~100", got)
	}
}
