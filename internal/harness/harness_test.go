package harness

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// parseF parses a formatted cell back to float.
func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig2aShape(t *testing.T) {
	tab := Fig2a(0.3)
	if len(tab.Rows) != 10 || len(tab.Header) != 6 {
		t.Fatalf("shape = %dx%d", len(tab.Rows), len(tab.Header))
	}
	// At every load, exec time falls monotonically from inner=1 to inner=8.
	for _, row := range tab.Rows {
		e1 := parseF(t, row[1])
		e8 := parseF(t, row[4])
		if e8 >= e1 {
			t.Fatalf("load %s: exec(inner=8)=%s >= exec(inner=1)=%s", row[0], row[4], row[1])
		}
		ratio := e1 / e8
		if ratio < 5.5 || ratio > 7.0 {
			t.Fatalf("load %s: speedup %.2f, want ≈6.3", row[0], ratio)
		}
	}
}

func TestFig2bShape(t *testing.T) {
	tab := Fig2b(0.3)
	last := tab.Rows[len(tab.Rows)-1] // load 1.0
	t1 := parseF(t, last[1])
	t8 := parseF(t, last[4])
	if t8 >= t1 {
		t.Fatalf("at load 1.0, inner=8 throughput %s must trail inner=1 %s", last[4], last[1])
	}
}

func TestFig2cShape(t *testing.T) {
	// Paper scale: the par-static's instability at saturation needs the
	// full 500-task run to show in the mean.
	tab := Fig2c(1.0)
	for _, row := range tab.Rows {
		lf := parseF(t, row[0])
		seq := parseF(t, row[1])
		par := parseF(t, row[2])
		ora := parseF(t, row[3])
		// The oracle never loses badly to either static.
		if ora > 1.15*minF(seq, par) {
			t.Fatalf("load %.1f: oracle %v worse than best static %v", lf, ora, minF(seq, par))
		}
		// The statics cross over: par wins at 0.2, seq wins at 1.0.
		if lf < 0.25 && par >= seq {
			t.Fatalf("light load: par-static should win (%v vs %v)", par, seq)
		}
		if lf > 0.95 && seq >= par {
			t.Fatalf("heavy load: seq-static should win (%v vs %v)", seq, par)
		}
	}
}

func TestFig11AllApps(t *testing.T) {
	// Paper scale: short runs mask the par-static's instability at heavy
	// load and make the statics look unrealistically good.
	for _, app := range []string{"x264", "swaptions", "bzip", "gimp"} {
		tab := Fig11(app, 1.0)
		if len(tab.Rows) != 10 {
			t.Fatalf("%s: rows = %d", app, len(tab.Rows))
		}
		// The adaptive mechanisms stay in the envelope of the statics at
		// the extremes: near the best static at light and heavy load.
		first := tab.Rows[0]
		lastRow := tab.Rows[len(tab.Rows)-2] // load 0.9; 1.0 is noisy
		for _, row := range [][]string{first, lastRow} {
			seq := parseF(t, row[1])
			par := parseF(t, row[2])
			wqth := parseF(t, row[3])
			wql := parseF(t, row[4])
			best := minF(seq, par)
			if wqth > 2.2*best || wql > 2.2*best {
				t.Fatalf("%s load %s: adaptive (%v, %v) far from best static %v",
					app, row[0], wqth, wql, best)
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab := Fig12(0.25)
	// At moderate-to-heavy load DoPE must beat the even static clearly.
	for _, row := range tab.Rows[4:8] { // loads 0.5-0.8
		even := parseF(t, row[1])
		dope := parseF(t, row[3])
		if dope >= even {
			t.Fatalf("load %s: DoPE %v should beat even static %v", row[0], dope, even)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tab := Fig13(0.25)
	if len(tab.Rows) < 5 {
		t.Fatalf("too few samples: %d", len(tab.Rows))
	}
	first := parseF(t, tab.Rows[0][1])
	peak := 0.0
	for _, row := range tab.Rows {
		if v := parseF(t, row[1]); v > peak {
			peak = v
		}
	}
	if peak < 2*first {
		t.Fatalf("no search-then-stabilize shape: first %v peak %v", first, peak)
	}
}

func TestFig14Shape(t *testing.T) {
	tab := Fig14(0.25)
	if len(tab.Rows) < 5 {
		t.Fatalf("too few samples: %d", len(tab.Rows))
	}
	// Late samples respect the budget (within a small transient band).
	n := len(tab.Rows)
	over := 0
	for _, row := range tab.Rows[n/2:] {
		if parseF(t, row[1]) > 720*1.06 {
			over++
		}
	}
	if over > n/4 {
		t.Fatalf("power cap persistently violated (%d late samples)", over)
	}
}

func TestTable3CountsAllMechanisms(t *testing.T) {
	tab := Table3()
	want := map[string]bool{"wqth": true, "wqlinear": true, "tbf": true,
		"fdp": true, "seda": true, "tpc": true, "proportional": true, "loadprop": true}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[0]] = true
		if parseF(t, row[1]) <= 0 {
			t.Fatalf("mechanism %s has no lines", row[0])
		}
	}
	for name := range want {
		if !seen[name] {
			t.Fatalf("mechanism %s missing from table3", name)
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tab := Table4()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 applications", len(tab.Rows))
	}
	levels := map[string]string{
		"x264": "2", "swaptions": "2", "bzip": "2", "gimp": "2",
		"ferret": "1", "dedup": "1",
	}
	for _, row := range tab.Rows {
		if want := levels[row[0]]; want != row[2] {
			t.Fatalf("%s nesting levels = %s, want %s", row[0], row[2], want)
		}
		if row[0] == "bzip" && row[4] != "4" {
			t.Fatalf("bzip DoPmin = %s, want 4", row[4])
		}
	}
}

func TestTable5Shape(t *testing.T) {
	tab := Table5(0.3)
	vals := map[string][2]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = [2]float64{parseF(t, row[1]), parseF(t, row[2])}
	}
	if vals["Pthreads-Baseline"][0] != 1 || vals["Pthreads-Baseline"][1] != 1 {
		t.Fatal("baseline must be 1.0x")
	}
	if vals["Pthreads-OS"][0] <= 1.3 {
		t.Fatalf("ferret OS = %.2f, want ≈2.1x", vals["Pthreads-OS"][0])
	}
	if vals["Pthreads-OS"][1] >= 1.0 {
		t.Fatalf("dedup OS = %.2f, want <1 (paper 0.89x)", vals["Pthreads-OS"][1])
	}
	for _, other := range []string{"Pthreads-OS", "DoPE-SEDA", "DoPE-FDP", "DoPE-TB"} {
		if vals["DoPE-TBF"][0] < vals[other][0] {
			t.Fatalf("ferret TBF %.2f must top %s %.2f", vals["DoPE-TBF"][0], other, vals[other][0])
		}
	}
}

func TestRunDispatchAndPrint(t *testing.T) {
	tab, err := Run("table4", 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "ferret") || !strings.Contains(out, "== table4") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if _, err := Run("nope", 1); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if len(Experiments()) < 14 {
		t.Fatal("experiment catalog incomplete")
	}
}

// TestResultsSimReproducible pins the "figures unchanged" claim: the
// checked-in results_sim.txt is exactly what `dope-bench -all` prints — every
// Deterministic experiment at scale 1, in catalog order. A change that moves
// a simulated figure must regenerate the file in the same commit.
func TestResultsSimReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated experiment at paper scale")
	}
	want, err := os.ReadFile("../../results_sim.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range Experiments() {
		if !e.Deterministic {
			continue
		}
		tab, err := Run(e.ID, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tab.Fprint(&got)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("results_sim.txt is stale at line %d:\n got: %s\nregenerate with `go run ./cmd/dope-bench -all > results_sim.txt`", i+1, gotLines[i])
			}
		}
		t.Fatalf("results_sim.txt has %d lines, regenerated output %d", len(wantLines), len(gotLines))
	}
}

func TestLiveFerretRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := LiveFerret()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	static := parseF(t, tab.Rows[0][1])
	tbf := parseF(t, tab.Rows[1][1])
	if static <= 0 || tbf <= 0 {
		t.Fatalf("throughputs: static=%v tbf=%v", static, tbf)
	}
}

func TestReconfigDipRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := ReconfigDip()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows: arm, queries/s, dip q/s, settle ms, reconfigs, resizes, suspensions.
	inPlace, wql := tab.Rows[0], tab.Rows[1]
	// The forced toggles are deterministic: six SetConfigs.
	if inPlace[4] != "6" {
		t.Fatalf("forced arm should see 6 reconfigurations: %v", inPlace)
	}
	// In-place arm must never suspend; every toggle lands as resizes.
	if inPlace[6] != "0" || inPlace[5] == "0" {
		t.Fatalf("in-place arm: want resizes>0 suspensions=0, got %v", inPlace)
	}
	// WQ-Linear only issues root extent changes: suspensions stay flat.
	if wql[6] != "0" {
		t.Fatalf("WQ-Linear arm suspended: %v", wql)
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func TestExtLocalityShape(t *testing.T) {
	tab := ExtLocality(0.3)
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = parseF(t, row[1])
	}
	scatter := vals["scatter (naive pool)"]
	cont := vals["contiguous (DoPE locality)"]
	none := vals["no-topology reference"]
	if cont <= scatter {
		t.Fatalf("locality-aware %v should beat scatter %v", cont, scatter)
	}
	if none < cont {
		t.Fatalf("no-topology reference %v should upper-bound contiguous %v", none, cont)
	}
}

func TestExtEDPShape(t *testing.T) {
	tab := ExtEDP(0.3)
	edp := map[string]float64{}
	for _, row := range tab.Rows {
		edp[row[0]] = parseF(t, row[3])
	}
	if edp["DoPE-EDP"] >= edp["all-ones static"] {
		t.Fatalf("EDP %v should beat the all-ones operating point %v",
			edp["DoPE-EDP"], edp["all-ones static"])
	}
	if edp["DoPE-EDP"] > edp["DoPE-TB (max throughput)"]*1.1 {
		t.Fatalf("EDP %v should not lose badly to pure throughput %v on its own objective",
			edp["DoPE-EDP"], edp["DoPE-TB (max throughput)"])
	}
}

func TestSummaryAllClaimsHold(t *testing.T) {
	tab := Summary(1.0)
	if len(tab.Rows) < 7 {
		t.Fatalf("summary rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "ok" {
			t.Errorf("claim %q: measured %q, verdict %s", row[0], row[2], row[3])
		}
	}
}
