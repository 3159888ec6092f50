package spans

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	all := []Span{
		{ID: 1, Name: "request.exec", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stage.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "stage.b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "stage.c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "core.begin", Start: 20, End: 25},
	}
	self := SelfTimes(all)
	want := map[uint64]int64{1: 50, 2: 20, 3: 25, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerSwitchAndJSONL(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.On() {
		t.Fatal("a nil tracer is off")
	}
	tr := New()
	if tr.On() {
		t.Fatal("a new tracer is off")
	}
	tr.Set(true)
	parent := tr.NewID()
	tr.Add(Span{Parent: parent, Req: 7, Name: `q"uote`, Start: 1, End: 3})
	tr.Add(Span{ID: parent, Req: 7, Name: "request", Start: 0, End: 4})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var got struct {
		ID, Parent uint64
		Req        int64
		Name       string
		Start      int64 `json:"start_ns"`
		End        int64 `json:"end_ns"`
	}
	if err := json.Unmarshal(lines[0], &got); err != nil {
		t.Fatal(err)
	}
	if got.Parent != parent || got.Req != 7 || got.Name != `q"uote` || got.Start != 1 || got.End != 3 || got.ID == 0 {
		t.Fatalf("round trip gave %+v", got)
	}
}
