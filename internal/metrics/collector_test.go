package metrics

import (
	"encoding/json"
	"testing"
	"time"

	"dope/internal/core"
)

func sampleReport(t float64, extent int, rate float64) *core.Report {
	return &core.Report{
		Time:         time.Duration(t * float64(time.Second)),
		Contexts:     8,
		BusyContexts: 3,
		Rejected:     5,
		Config:       &core.Config{Alt: 0, Extents: []int{extent}},
		Root: &core.NestReport{
			Name: "app", Path: "app",
			Stages: []core.StageReport{{
				Name: "work", Type: core.PAR, Extent: extent,
				Rate: rate, QueueSojourn: 0.002, Load: 4, Workers: extent,
				Stalls: 1, Shed: 2, Failures: 3, Zombies: 0,
			}},
			Children: map[string]*core.NestReport{
				"inner": {
					Name: "inner", Path: "app/inner",
					Stages: []core.StageReport{{Name: "leaf", Extent: 1, Rate: 10}},
				},
			},
		},
	}
}

func TestCollectorSeriesAndCursor(t *testing.T) {
	c := NewCollector(64)
	defer c.Close()
	c.ObserveReport(sampleReport(0.1, 2, 100))
	c.ObserveReport(sampleReport(0.2, 2, 120))

	snap := c.Snapshot(0)
	if snap.Cursor == 0 {
		t.Fatal("cursor did not advance")
	}
	rate := snap.Series["stage/app/work/rate"]
	if len(rate) != 2 || rate[0].V != 100 || rate[1].V != 120 {
		t.Fatalf("rate series = %+v, want two points 100,120", rate)
	}
	for _, name := range []string{
		"stage/app/work/sojourn", "stage/app/work/extent", "stage/app/work/stalls",
		"stage/app/work/shed", "stage/app/work/failures",
		"stage/app/inner/leaf/rate",
		"proc/contexts", "proc/busy", "proc/rejected",
	} {
		if len(snap.Series[name]) == 0 {
			t.Errorf("series %q missing from snapshot", name)
		}
	}

	// Incremental fetch: only the second report's points come back.
	mid := rate[0].Seq
	inc := c.Snapshot(snap.Cursor)
	if len(inc.Series) != 0 {
		t.Fatalf("snapshot at cursor returned %d series, want 0", len(inc.Series))
	}
	c.ObserveReport(sampleReport(0.3, 2, 140))
	inc = c.Snapshot(snap.Cursor)
	if got := inc.Series["stage/app/work/rate"]; len(got) != 1 || got[0].V != 140 {
		t.Fatalf("incremental rate = %+v, want one point 140", got)
	}
	if got := c.Snapshot(mid).Series["stage/app/work/rate"]; len(got) != 2 {
		t.Fatalf("mid-cursor rate = %+v, want 2 points", got)
	}

	// The snapshot marshals: this is the /series payload.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

func TestCollectorSynthesizedDecisions(t *testing.T) {
	c := NewCollector(64)
	defer c.Close()
	// No trace feed attached: config changes between reports synthesize
	// reconfigure entries (the replay post-mortem path).
	c.ObserveReport(sampleReport(0.1, 2, 100))
	c.ObserveReport(sampleReport(0.2, 2, 100)) // unchanged: no entry
	c.ObserveReport(sampleReport(0.3, 4, 100)) // extent moved: entry
	snap := c.Snapshot(0)
	if len(snap.Events) != 1 {
		t.Fatalf("got %d synthesized events, want 1: %+v", len(snap.Events), snap.Events)
	}
	if snap.Events[0].Kind != core.EventReconfigure.String() {
		t.Errorf("kind = %q", snap.Events[0].Kind)
	}

	// Once a live event feed exists, synthesis stops (no duplicates).
	c.ObserveEvent(core.Event{Kind: core.EventResize, Stage: "work", FromExtent: 4, ToExtent: 6})
	c.ObserveReport(sampleReport(0.4, 6, 100))
	deadline := time.Now().Add(time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = len(c.Snapshot(0).Events)
		if n >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n != 2 {
		t.Fatalf("got %d events after live feed, want 2 (no synthesized duplicate)", n)
	}
}

func TestCollectorTenants(t *testing.T) {
	c := NewCollector(32)
	defer c.Close()
	c.ObserveTenants(1.0, []TenantSample{
		{Name: "video", State: "running", Quota: 6, Used: 5, Grants: 2, Revokes: 1},
		{Name: "search", State: "running", Quota: 2, Used: 2},
	})
	c.RecordDecision(DecisionEntry{T: 1.0, Kind: "grant", Nest: "video", From: 4, To: 6})
	snap := c.Snapshot(0)
	if len(snap.Tenants) != 2 || snap.Tenants[0].Name != "video" {
		t.Fatalf("tenants = %+v", snap.Tenants)
	}
	if len(snap.Series["tenant/video/quota"]) != 1 {
		t.Fatal("tenant quota series missing")
	}
	if len(snap.Events) != 1 || snap.Events[0].Kind != "grant" {
		t.Fatalf("events = %+v", snap.Events)
	}
}

func TestCollectorEventOverflowDrops(t *testing.T) {
	c := NewCollector(16)
	// Saturate the bounded channel faster than the writer can drain; the
	// producer must never block, only count drops.
	for i := 0; i < 100000; i++ {
		c.ObserveEvent(core.Event{Kind: core.EventResize, FromExtent: i, ToExtent: i + 1})
	}
	c.Close()
	snap := c.Snapshot(0)
	if len(snap.Events) == 0 {
		t.Fatal("no events recorded at all")
	}
	if snap.Dropped == 0 {
		t.Log("writer kept up with 100k events; drop path not exercised this run")
	}
}

// TestCollectorSwitchPhases: the phases of an alternative switch reach the
// decision log by kind, and the drained row carries the instance and how
// long after its suspend it drained.
func TestCollectorSwitchPhases(t *testing.T) {
	c := NewCollector(16)
	for _, ev := range []core.Event{
		{Kind: core.EventSuspend, Time: time.Second},
		{Kind: core.EventResume, Time: time.Second + 40*time.Microsecond},
		{Kind: core.EventDrained, Time: time.Second + 80*time.Millisecond,
			Nest: "ferret/pipeline", Drain: 80 * time.Millisecond},
	} {
		c.ObserveEvent(ev)
	}
	c.Close()
	evs := c.Snapshot(0).Events
	if len(evs) != 3 || evs[0].Kind != "suspend" || evs[1].Kind != "resume" || evs[2].Kind != "drained" {
		t.Fatalf("events = %+v", evs)
	}
	if d := evs[2]; d.Nest != "ferret/pipeline" || d.Detail != "80.0ms after its suspend" {
		t.Fatalf("drained row = %+v", d)
	}
}
