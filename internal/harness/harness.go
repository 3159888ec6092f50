// Package harness regenerates every table and figure of the paper's
// evaluation (§8). Each experiment returns a Table whose rows/series mirror
// what the paper plots; the cmd/dope-bench binary prints them and the
// repository's benchmark suite (bench_test.go) wraps them in testing.B
// targets.
//
// Quantitative sweeps run on the discrete-event simulator (package sim) so
// they are deterministic and fast; the "live-*" experiments exercise the
// same applications on the real runtime (packages core + apps) at reduced
// scale.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: a titled grid with notes.
type Table struct {
	// ID is the experiment identifier ("fig2a", "table5", ...).
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry expectations from the paper for eyeball comparison.
	Notes []string
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// f3 formats a float with three significant decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// fx formats a ratio as "N.NNx".
func fx(v float64) string { return fmt.Sprintf("%.2fx", v) }

// ms formats seconds as milliseconds.
func ms(v float64) string { return fmt.Sprintf("%.1f", v*1000) }

// loads is the standard load-factor sweep of the paper's figures.
func loads() []float64 {
	out := make([]float64, 0, 10)
	for lf := 0.1; lf <= 1.0+1e-9; lf += 0.1 {
		out = append(out, lf)
	}
	return out
}

// Experiment is one catalog entry: its id, what it reproduces, whether its
// output is a pure function of the source tree and scale (the simulated
// tables; real-runtime experiments measure wall-clock time and table3 counts
// source lines), and how to run it.
type Experiment struct {
	ID            string
	Desc          string
	Deterministic bool
	run           func(scale float64) (*Table, error)
}

// scaled adapts a simulated experiment that takes the scale, fixed a table
// that ignores it, and live a real-runtime experiment that can fail.
func scaled(f func(float64) *Table) func(float64) (*Table, error) {
	return func(scale float64) (*Table, error) { return f(scale), nil }
}

func fixed(f func() *Table) func(float64) (*Table, error) {
	return func(float64) (*Table, error) { return f(), nil }
}

func live(f func() (*Table, error)) func(float64) (*Table, error) {
	return func(float64) (*Table, error) { return f() }
}

func fig11(app string) func(float64) (*Table, error) {
	return func(scale float64) (*Table, error) { return Fig11(app, scale), nil }
}

// Experiments lists every available experiment. `dope-bench -all` and the
// checked-in results_sim.txt hold exactly the Deterministic ones, in this
// order.
func Experiments() []Experiment {
	return []Experiment{
		{"summary", "all headline claims, paper vs measured, in one table", true, scaled(Summary)},
		{"fig2a", "transcode execution time vs load per inner DoP", true, scaled(Fig2a)},
		{"fig2b", "transcode throughput vs load per inner DoP", true, scaled(Fig2b)},
		{"fig2c", "transcode response time: statics vs oracle", true, scaled(Fig2c)},
		{"fig11a", "x264 response time vs load: statics, WQT-H, WQ-Linear", true, fig11("x264")},
		{"fig11b", "swaptions response time vs load", true, fig11("swaptions")},
		{"fig11c", "bzip response time vs load", true, fig11("bzip")},
		{"fig11d", "gimp response time vs load", true, fig11("gimp")},
		{"fig12", "ferret response time vs load: statics vs DoPE", true, scaled(Fig12)},
		{"fig13", "ferret throughput vs time under TBF", true, scaled(Fig13)},
		{"fig14", "ferret power & throughput vs time under TPC", true, scaled(Fig14)},
		{"table3", "mechanism implementation sizes (lines of code)", false, fixed(Table3)},
		{"ext-locality", "EXTENSION: task placement vs communication locality", true, scaled(ExtLocality)},
		{"ext-edp", "EXTENSION: the min energy-delay-product goal", true, scaled(ExtEDP)},
		{"ext-whatif", "EXTENSION: ferret what-if profile (causal virtual speedups)", true, scaled(ExtWhatIfProfile)},
		{"ext-whatif-gradient", "EXTENSION: what-if Gradient vs statics and §7 mechanisms", true, scaled(ExtWhatIfGradient)},
		{"tenants", "EXTENSION: multi-tenant isolation — misbehaver at 2x overload + 1% panics, arbitrated vs free-for-all", true, scaled(Tenants)},
		{"table4", "application port summary", true, fixed(Table4)},
		{"table5", "ferret/dedup throughput by mechanism (Figure 15)", true, scaled(Table5)},
		{"reconfig-dip", "real-runtime reconfiguration cost of in-place stage resizes", false, live(ReconfigDip)},
		{"faults", "real-runtime throughput under injected panics, by failure policy", false, live(Faults)},
		{"stalls", "real-runtime stall tolerance (task deadlines) and overload protection (load shedding)", false, live(Stalls)},
		{"live-transcode", "real-runtime transcode server under WQ-Linear", false, live(LiveTranscode)},
		{"live-ferret", "real-runtime ferret batch under TBF", false, live(LiveFerret)},
		{"live-power", "real-runtime ferret under TPC with a watt budget", false, live(LivePower)},
		{"live-goals", "real-runtime ferret: three goals switched at run time", false, live(LiveGoals)},
	}
}

// Run dispatches an experiment by id with the given scale factor
// (1.0 = paper scale for simulated experiments; live experiments are always
// reduced).
func Run(id string, scale float64) (*Table, error) {
	if scale <= 0 {
		scale = 1
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e.run(scale)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (see Experiments())", id)
}
