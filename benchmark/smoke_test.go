package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of the BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc, raw
}

// The file at the root is what the runner's own definitions render to.
func TestBenchmarkJSONMatchesTheRunner(t *testing.T) {
	_, raw := readBenchmarkJSON(t)
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("BENCHMARK.json differs from `run.sh -manifest`; regenerate it")
	}
}

func TestBenchmarkJSONKeepsTheContract(t *testing.T) {
	doc, raw := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(raw) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("file of %d bytes, run_seconds %d", len(raw), doc.RunSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
	// All runs the driver makes, with set-up, must fit its budget.
	runs := 4 + 22*len(doc.Workloads)
	if perRun := 3420 / runs; perRun < doc.RunSeconds+12 {
		t.Errorf("%d runs leave %d s each; a run takes run_seconds + about 12 s", runs, perRun)
	}
}

func TestScenariosRejectUnknownFields(t *testing.T) {
	raw, err := scenarioFS.ReadFile("scenarios/spin-pipe.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeScenario(raw); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(raw, []byte(`"kind"`), []byte(`"colour": "red", "kind"`), 1)
	if _, err := decodeScenario(bad); err == nil || !strings.Contains(err.Error(), "colour") {
		t.Fatalf("an unknown field must be rejected by name, got %v", err)
	}
	if _, err := loadScenario("no-such-workload"); err == nil {
		t.Fatal("an unknown workload must be an error")
	}
}

// Each workload, run for a second with tracing on, prints every end-to-end
// and per-layer metric BENCHMARK.json names exactly once, finite and in its
// unit, and passes its own correctness checks. The numbers of so short a
// run mean nothing, so the validity guards only warn.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	doc, _ := readBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range doc.Workloads {
		sc, err := loadScenario(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		sc.WarmupS = 0.3
		o := options{workload: w.Name, seed: 1, seconds: 1, trace: true, lenient: true, outDir: dir}
		res, err := runWorkload(sc, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, p := range res.problems {
			t.Errorf("%s: failed check: %s", w.Name, p)
		}
		if res.attempted < 1 || res.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.attempted, res.failed)
		}
		if fi, err := os.Stat(dir + "/" + w.Name + ".trace.jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
		units := map[string]string{}
		for _, m := range doc.EndToEnd {
			units[m.Name] = m.Unit
		}
		for _, m := range doc.PerLayer {
			units[m.Name] = m.Unit
		}
		printed := map[string]int{}
		for _, traced := range []bool{false, true} {
			o.trace = traced
			var out bytes.Buffer
			rep, err := emit(&out, sc, o, res)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, line := range strings.Split(out.String(), "\n")[1:] {
				f := strings.Fields(line)
				if len(f) == 0 {
					continue
				}
				if len(f) != 3 || f[2] != units[f[0]] {
					t.Errorf("%s: line %q does not give a known metric in its unit", w.Name, line)
					continue
				}
				printed[f[0]]++
				x, ok := rep.Metrics[f[0]]
				if !ok || math.IsNaN(x.Value) || math.IsInf(x.Value, 0) || x.Unit != f[2] {
					t.Errorf("%s: %s is missing from the report or not finite", w.Name, f[0])
				}
			}
		}
		for n := range units {
			if printed[n] != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, n, printed[n])
			}
		}
		for _, m := range doc.EndToEnd {
			if res.values[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, res.values[m.Name])
			}
		}
	}
}
