package replay

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/mechanism"
	"dope/internal/platform"
)

// liveReport produces a genuine report by briefly running ferret on the
// real executive.
func liveReport(t *testing.T) *core.Report {
	t.Helper()
	s := apps.NewServer(nil)
	spec := apps.NewFerret(s, apps.FerretParams{UnitsBase: 80})
	e, err := core.New(spec, core.WithContexts(8),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, 2, 2, 2, 2, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.Submit(1.0)
	}
	s.Close()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Report()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rep := liveReport(t)
	entry := Encode(rep)
	back := Decode(entry)

	if back.Contexts != rep.Contexts || back.BusyContexts != rep.BusyContexts {
		t.Fatal("context counts lost")
	}
	if back.Root == nil || back.Root.Name != rep.Root.Name {
		t.Fatal("root lost")
	}
	if len(back.Root.Stages) != len(rep.Root.Stages) {
		t.Fatal("stages lost")
	}
	for i := range rep.Root.Stages {
		a, b := rep.Root.Stages[i], back.Root.Stages[i]
		if a.Name != b.Name || a.Type != b.Type || a.Extent != b.Extent ||
			a.ExecTime != b.ExecTime || a.Iterations != b.Iterations {
			t.Fatalf("stage %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// The structural spec survives, including alternatives.
	if back.Root.Spec == nil || len(back.Root.Spec.Alts) != len(rep.Root.Spec.Alts) {
		t.Fatal("spec alternatives lost")
	}
	if err := back.Root.Spec.Validate(); err != nil {
		t.Fatalf("reconstructed spec invalid: %v", err)
	}
	if !back.Config.Equal(rep.Config) {
		t.Fatalf("config mismatch: %v vs %v", back.Config, rep.Config)
	}
	// Features answer the recorded values.
	v, err := back.Features.Value(platform.FeatureHardwareContexts)
	if err != nil || v != 8 {
		t.Fatalf("feature = %v, %v", v, err)
	}
}

func TestRecorderAndReadLog(t *testing.T) {
	rep := liveReport(t)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 3; i++ {
		if err := rec.Record(rep); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Count() != 3 {
		t.Fatalf("count = %d", rec.Count())
	}
	entries, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Root.Name != "ferret" {
		t.Fatalf("root = %q", entries[0].Root.Name)
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	entries, err := ReadLog(strings.NewReader("\n\n"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("blank lines should be skipped: %v, %d", err, len(entries))
	}
}

func TestReplayDrivesRealMechanism(t *testing.T) {
	// Record a run where the ferret pipeline is badly unbalanced, then
	// replay TBF over the log: it must propose a rebalanced (or fused)
	// configuration.
	rep := liveReport(t)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 5; i++ {
		rec.Record(rep)
	}
	entries, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decisions := Replay(entries, &mechanism.TBF{Threads: 24})
	if len(decisions) == 0 {
		t.Fatal("TBF made no decision over the recorded run")
	}
	first := decisions[0]
	if first.Config == nil {
		t.Fatal("nil decision config")
	}
	total := 0
	if first.Config.Alt == 0 {
		for _, e := range first.Config.Extents {
			total += e
		}
		if total <= 10 {
			t.Fatalf("TBF proposal too small: %v", first.Config)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	rep := liveReport(t)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 4; i++ {
		rec.Record(rep)
	}
	raw := buf.Bytes()
	e1, _ := ReadLog(bytes.NewReader(raw))
	e2, _ := ReadLog(bytes.NewReader(raw))
	d1 := Replay(e1, &mechanism.FDP{Threads: 24})
	d2 := Replay(e2, &mechanism.FDP{Threads: 24})
	if len(d1) != len(d2) {
		t.Fatalf("replay not deterministic: %d vs %d decisions", len(d1), len(d2))
	}
	for i := range d1 {
		if !d1[i].Config.Equal(d2[i].Config) {
			t.Fatalf("decision %d differs", i)
		}
	}
}

func TestRecordWhileRunning(t *testing.T) {
	// Record snapshots every few milliseconds while the executive runs,
	// the way cmd/dope-trace -record does.
	s := apps.NewServer(nil)
	spec := apps.NewFerret(s, apps.FerretParams{UnitsBase: 80})
	e, err := core.New(spec, core.WithContexts(8),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, 1, 1, 1, 1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			rec.Record(e.Report())
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for i := 0; i < 60; i++ {
		s.Submit(1.0)
	}
	s.Close()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	<-done
	entries, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("too few snapshots: %d", len(entries))
	}
	// Later entries show progress.
	lastIters := entries[len(entries)-1].Root.Stages[0].Iterations
	if lastIters == 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestDecodeUnknownQueueSafe(t *testing.T) {
	// A log from a newer producer may omit fields; decoding must not panic.
	e := &Entry{Spec: &SpecRecord{Name: "x", Alts: []AltRecord{{Name: "a",
		Stages: []StageRecord{{Name: "s", Par: true}}}}}}
	rep := Decode(e)
	if rep.Root != nil {
		t.Fatal("nil root should stay nil")
	}
}

// TestInterruptedRecordingStillParses pins the truncated-tail contract: a
// recorder killed mid-write leaves a partial final line, and ReadLog must
// serve every complete entry before it instead of failing the whole log.
func TestInterruptedRecordingStillParses(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 5; i++ {
		rep := &core.Report{Time: time.Duration(i) * time.Second, Contexts: 8}
		if err := rec.Record(rep); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.String()

	// Chop the log mid-way through the last entry, newline and all — the
	// shape a SIGKILL mid-write leaves behind.
	cut := full[:len(full)-len("\n")-17]
	entries, err := ReadLog(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail should parse, got %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("got %d entries from truncated log, want 4", len(entries))
	}
	for i, e := range entries {
		if e.TimeSec != float64(i) {
			t.Errorf("entry %d: TimeSec = %g, want %d", i, e.TimeSec, i)
		}
	}

	// Corruption before the tail is still an error: splice garbage into the
	// middle of an otherwise complete log.
	lines := strings.SplitAfter(full, "\n")
	lines[2] = lines[2][:10] + "\n"
	if _, err := ReadLog(strings.NewReader(strings.Join(lines, ""))); err == nil {
		t.Fatal("mid-log corruption must not be silently dropped")
	}
}
