package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
)

// --- every field survives the log ---------------------------------------------

// filler sets every exported field reachable from a value to a distinct
// non-zero value, so a field that any hop drops — or serializes under a key
// it does not read back — cannot hide behind a zero.
type filler struct {
	t *testing.T
	n int
}

func (f *filler) next() int { f.n++; return f.n }

func (f *filler) fill(v reflect.Value, depth int) {
	switch v.Type() {
	case reflect.TypeOf(core.PAR):
		v.Set(reflect.ValueOf(core.PAR))
		return
	case reflect.TypeOf(time.Duration(0)):
		// Whole seconds: the log stores uptime as float seconds.
		v.SetInt(int64(time.Duration(f.next()) * time.Second))
		return
	case reflect.TypeOf((*core.NestSpec)(nil)), reflect.TypeOf((*platform.Features)(nil)):
		return // functors; built by hand and compared structurally
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.next()))
	case reflect.Uint64:
		v.SetUint(uint64(f.next()))
	case reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), depth)
		}
	case reflect.Map: // the schema's maps are the recursive name -> child ones
		if depth >= 2 {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			elem := reflect.New(v.Type().Elem()).Elem()
			f.fill(elem, depth+1)
			v.SetMapIndex(reflect.ValueOf(fmt.Sprintf("child%d", f.next())), elem)
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), depth)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			// Below the Report envelope every field is wire format and must
			// say so: an untagged field would change key when renamed.
			if v.Type() != reflect.TypeOf(core.Report{}) && sf.Tag.Get("json") == "" {
				f.t.Errorf("%s.%s has no json tag", v.Type(), sf.Name)
			}
			f.fill(v.Field(i), depth)
		}
	default:
		f.t.Fatalf("%s: kind %v not handled by this test", v.Type(), v.Kind())
	}
}

// specFor builds (and links into the tree) a spec whose structure matches a
// filled observation tree: the reported stages, plus one delegating stage per
// child nest.
func specFor(n *core.NestReport, name string) *core.NestSpec {
	alt := &core.AltSpec{Name: n.AltName, Make: noopMake}
	for _, st := range n.Stages {
		alt.Stages = append(alt.Stages, core.StageSpec{
			Name: st.Name, Type: st.Type, MinDoP: st.MinDoP, MaxDoP: st.MaxDoP,
		})
	}
	for k, c := range n.Children {
		alt.Stages = append(alt.Stages, core.StageSpec{Name: "run-" + k, Type: core.PAR, Nest: specFor(c, k)})
	}
	n.Spec = &core.NestSpec{Name: name, Alts: []*core.AltSpec{alt}}
	return n.Spec
}

// stripSpecs checks that got's nodes were re-linked to the structure of
// want's specs, then clears both sides' Spec pointers (they hold functors, so
// DeepEqual cannot compare them).
func stripSpecs(t *testing.T, want, got *core.NestReport) {
	t.Helper()
	if got.Spec == nil || !reflect.DeepEqual(encodeSpec(got.Spec), encodeSpec(want.Spec)) {
		t.Errorf("nest %s: spec not re-linked on decode", want.Path)
	}
	want.Spec, got.Spec = nil, nil
	for k, c := range want.Children {
		if g := got.Children[k]; g != nil {
			stripSpecs(t, c, g)
		}
	}
}

// TestEveryFieldRoundTrips fills every exported field of a report tree —
// stage rows, nests, config, tenant, rejections — with distinct non-zero
// values and requires Encode -> JSONL -> ReadLog -> Decode to return an equal
// tree. Adding a field to the schema needs no edit here; dropping one on the
// way (a `json:"-"`, a missing tag, a copy that forgets it) fails.
func TestEveryFieldRoundTrips(t *testing.T) {
	rep := &core.Report{}
	(&filler{t: t}).fill(reflect.ValueOf(rep).Elem(), 0)
	specFor(rep.Root, rep.Root.Name)
	rep.Features = platform.NewFeatures()
	rep.Features.Register("watts", func() float64 { return 612.5 })
	rep.Features.Register("contexts", func() float64 { return 24 })

	var buf bytes.Buffer
	if err := NewRecorder(&buf).Record(rep); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadLog(&buf)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadLog: %d entries, %v", len(entries), err)
	}
	back := Decode(entries[0])

	for _, name := range rep.Features.Names() {
		want, _ := rep.Features.Value(name)
		if got, err := back.Features.Value(name); err != nil || got != want {
			t.Errorf("feature %s = %v, %v; want %v", name, got, err, want)
		}
	}
	rep.Features, back.Features = nil, nil
	stripSpecs(t, rep.Root, back.Root)
	if !reflect.DeepEqual(rep, back) {
		w, _ := json.MarshalIndent(Encode(rep), "", " ")
		g, _ := json.MarshalIndent(Encode(back), "", " ")
		t.Fatalf("report changed across the log\nrecorded: %s\ndecoded:  %s", w, g)
	}
}

// --- the wire format is the parent commit's -----------------------------------

// generic parses JSON into map[string]any / []any / scalars.
func generic(t testing.TB, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("%v in %s", err, data)
	}
	return v
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWireCompatWithParent decodes a JSONL log and a GET /report body that
// were recorded by the commit before the report types became the wire format
// (dope-trace -app ferret -requests 120 -record, three tenant-tagged entries
// from the multitenant example, /report of x264 under the power goal), and
// requires each entry to re-encode to the same keys, values and omissions.
func TestWireCompatWithParent(t *testing.T) {
	log, err := os.ReadFile("testdata/parent_log.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ReadLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(log), []byte("\n"))
	if len(entries) != len(lines) {
		t.Fatalf("%d entries from %d lines", len(entries), len(lines))
	}
	tenants := 0
	for i, e := range entries {
		if !reflect.DeepEqual(generic(t, marshal(t, e)), generic(t, lines[i])) {
			t.Errorf("line %d re-encodes differently:\n got %s\nwant %s", i+1, marshal(t, e), lines[i])
		}
		if rep := Decode(e); rep.Root == nil || rep.Root.Spec == nil || rep.Config == nil {
			t.Errorf("line %d does not decode to a usable report", i+1)
		}
		if e.Tenant != "" {
			tenants++
		}
	}
	if tenants == 0 {
		t.Error("fixture holds no tenant-tagged entry")
	}

	body, err := os.ReadFile("testdata/parent_report.json")
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(generic(t, marshal(t, &e)), generic(t, body)) {
		t.Errorf("/report body re-encodes differently:\n got %s", marshal(t, &e))
	}
	rep := Decode(&e)
	if child := rep.Root.Children["video"]; child == nil || child.Spec == nil || child.Spec.Name != "video" {
		t.Error("/report body: nested nest not re-linked to its spec")
	}
}

// --- fuzz ---------------------------------------------------------------------

// prune drops what the schema treats as absent — null, empty arrays, empty
// objects — so a nil and an empty slice compare equal.
func prune(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			if c = prune(c); c == nil {
				delete(x, k)
			} else {
				x[k] = c
			}
		}
		if len(x) == 0 {
			return nil
		}
	case []any:
		if len(x) == 0 {
			return nil
		}
		for i := range x {
			x[i] = prune(x[i])
		}
	}
	return v
}

// FuzzReadLog: ReadLog, Decode and Encode never panic, and whatever parses
// survives Decode -> Encode unchanged at the JSON-value level. Two envelope
// conversions are lossy by design and excused: uptime passes through a
// nanosecond time.Duration, and the structural spec hangs off the root nest,
// so a root-less entry cannot carry one.
func FuzzReadLog(f *testing.F) {
	log, err := os.ReadFile("testdata/parent_log.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(log, []byte("\n")) {
		f.Add(line)
	}
	f.Add(log[:len(log)-40]) // an interrupted recording's truncated tail
	body, err := os.ReadFile("testdata/parent_report.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range entries {
			back := Encode(Decode(e))
			if math.Abs(e.TimeSec) < 1e9 {
				if d := math.Abs(back.TimeSec - e.TimeSec); d > 1e-9 {
					t.Fatalf("t = %v came back as %v", e.TimeSec, back.TimeSec)
				}
			}
			back.TimeSec = e.TimeSec
			if e.Root == nil {
				back.Spec = e.Spec
			}
			want, got := prune(generic(t, marshal(t, e))), prune(generic(t, marshal(t, back)))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("entry changed across Decode/Encode:\n was %s\n now %s", marshal(t, e), marshal(t, back))
			}
		}
	})
}
