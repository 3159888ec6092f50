package topui

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/metrics"
	"dope/internal/replay"
	"dope/internal/stats"
)

// report builds a deterministic two-level nest report at time t.
func report(t float64, extent int, rate float64) *core.Report {
	return &core.Report{
		Tenant:       "video",
		Time:         time.Duration(t * float64(time.Second)),
		Contexts:     8,
		BusyContexts: 4,
		Rejected:     3,
		Config:       &core.Config{Alt: 0, Extents: []int{1, extent}},
		Root: &core.NestReport{
			Name: "svc", Path: "svc", AltName: "pipeline",
			Spec: &core.NestSpec{Name: "svc", Alts: []*core.AltSpec{{
				Name: "pipeline",
				Stages: []core.StageSpec{
					{Name: "produce", Type: core.SEQ},
					{Name: "consume", Type: core.PAR},
				},
			}}},
			Stages: []core.StageReport{
				{Name: "produce", Type: core.SEQ, Extent: 1, Rate: rate,
					QueueSojourn: 0.0004, Observed: true},
				{Name: "consume", Type: core.PAR, Extent: extent, Rate: rate * 0.97,
					QueueSojourn: 0.0021, Stalls: 2, Shed: 5, Failures: 1,
					Workers: extent, Observed: true},
			},
			Children: map[string]*core.NestReport{
				"inner": {
					Name: "inner", Path: "svc/inner", AltName: "doall",
					Stages: []core.StageReport{
						{Name: "leaf", Type: core.PAR, Extent: 2, Rate: 40}},
				},
			},
		},
	}
}

// TestGoldenFrameLiveVsReplay is the record→replay-through-UI pin: frames
// rendered from live entries must equal frames rendered after those entries
// round-trip through a recorded JSONL log. If either the replay encoding or
// the render path drops a field, the frames diverge and this fails.
func TestGoldenFrameLiveVsReplay(t *testing.T) {
	reports := []*core.Report{
		report(0.1, 2, 120),
		report(0.2, 2, 130),
		report(0.3, 5, 180), // reconfigure: synthesized decision entry
		report(0.4, 5, 210),
	}

	// "Live" side: entries straight from the running reports.
	live := NewModel(64, Opts{})
	defer live.Close()
	var buf bytes.Buffer
	rec := replay.NewRecorder(&buf)
	for _, r := range reports {
		e := replay.Encode(r)
		live.Ingest(e)
		if err := rec.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	liveFrame := live.Frame()

	// Post-mortem side: the same run read back from the JSONL log.
	entries, err := replay.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	post := NewModel(64, Opts{})
	defer post.Close()
	for _, e := range entries {
		post.Ingest(e)
	}
	postFrame := post.Frame()

	if liveFrame != postFrame {
		t.Fatalf("live and replay frames diverged:\n--- live ---\n%s\n--- replay ---\n%s",
			liveFrame, postFrame)
	}

	// The frame carries the load-bearing content.
	for _, want := range []string{
		"tenant=video",                        // Entry.Tenant survived
		"3 rejected",                          // Entry.Rejected survived
		"produce", "consume", "inner", "leaf", // the tree
		"PAR", "SEQ",
		"DECISIONS",   // synthesized reconfigure from the extent change
		"reconfigure", // its kind
	} {
		if !strings.Contains(liveFrame, want) {
			t.Errorf("frame missing %q:\n%s", want, liveFrame)
		}
	}
	// Robustness counters render (the PR's bugfix surface): consume's
	// stalls/shed/failures columns carry 2/5/1.
	var consumeRow string
	for _, line := range strings.Split(liveFrame, "\n") {
		if strings.Contains(line, "consume") {
			consumeRow = line
		}
	}
	for _, col := range []string{" 2 ", " 5 ", " 1 "} {
		if !strings.Contains(consumeRow+" ", col) {
			t.Errorf("consume row missing counter %q: %q", strings.TrimSpace(col), consumeRow)
		}
	}
}

// TestFrameIsPure pins that Frame has no hidden state: rendering the same
// inputs twice yields identical bytes.
func TestFrameIsPure(t *testing.T) {
	m := NewModel(32, Opts{})
	defer m.Close()
	m.Ingest(replay.Encode(report(1.0, 3, 99)))
	m.col.ObserveTenants(1.0, []metrics.TenantSample{
		{Name: "video", State: "running", Quota: 5, Used: 4, Grants: 2, Revokes: 1},
	})
	a, b := m.Frame(), m.Frame()
	if a != b {
		t.Fatal("two renders of the same model differ")
	}
	if !strings.Contains(a, "TENANT") || !strings.Contains(a, "video") {
		t.Errorf("tenant table missing:\n%s", a)
	}
}

// TestSparkline pins the scaling edge cases.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 4); got != "    " {
		t.Errorf("empty spark = %q", got)
	}
	ramp := mkPoints(1, 2, 3, 4, 5, 6, 7, 8)
	s := sparkline(ramp, 8)
	runes := []rune(s)
	if len(runes) != 8 {
		t.Fatalf("ramp spark = %q", s)
	}
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("ramp spark = %q, want ▁..█", s)
	}
	flat := sparkline(mkPoints(5, 5, 5), 3)
	for _, r := range flat {
		if r != sparkRunes[len(sparkRunes)/2] {
			t.Errorf("flat spark = %q, want mid-height", flat)
		}
	}
	// Window wider than data left-pads with spaces.
	padded := sparkline(mkPoints(1, 9), 5)
	if !strings.HasPrefix(padded, "   ") {
		t.Errorf("padded spark = %q", padded)
	}
}

func mkPoints(vs ...float64) []stats.Point {
	out := make([]stats.Point, len(vs))
	for i, v := range vs {
		out[i] = stats.Point{Seq: uint64(i + 1), T: float64(i), V: v}
	}
	return out
}
