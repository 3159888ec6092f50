// Command benchmark measures the live DoPE runtime end to end and layer by
// layer: four workloads declared in scenarios/, six end-to-end metrics
// measured with tracing off, and a traced run that yields the per-layer
// metrics and a span file. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload spin-pipe --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all -seed 1
//	bash benchmark/run.sh -repeat 10 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"

	"dope/benchmark/stat"
)

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	var all, printManifest bool
	var repeat int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(scenarioNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: the scenario's window_s)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics and a span file")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for the traced run's span files")
	flag.BoolVar(&o.lenient, "lenient", false, "report failed validity guards (sample sizes, generator lateness, backlog) as warnings; for sub-second smoke runs")
	flag.BoolVar(&all, "all", false, "run every workload (or the one named), untraced and then traced, each in a process of its own")
	flag.IntVar(&repeat, "repeat", 0, "run the selected workloads N times untraced with seeds seed..seed+N-1, in alternating order, and report the spread of every end-to-end metric")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json as the runner defines it")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case printManifest:
		var doc []byte
		if doc, err = manifest(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case repeat > 0:
		err = runRepeat(o, repeat)
	case all:
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload in this process.
func runOne(o options) error {
	sc, err := loadScenario(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = sc.WindowS
	}
	precondition()
	res, err := runWorkload(sc, o)
	if err != nil {
		return err
	}
	rep, err := emit(os.Stdout, sc, o, res)
	if err != nil {
		return err
	}
	for _, w := range res.warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAILED CHECK:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d checks failed", sc.Name, len(res.problems))
	}
	return nil
}

// emit prints the metrics of the run's mode by name with their units and
// returns the report made of the same values.
func emit(w io.Writer, sc *Scenario, o options, res *runResult) (report, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := report{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v  response samples %.0f\n",
		sc.Name, o.seed, o.seconds, o.trace, res.values["workload.resp_samples"])
	for _, d := range defs {
		x := res.values[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return rep, fmt.Errorf("metric %s is not finite", d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.Name, x, d.Unit)
	}
	return rep, nil
}

// selected returns the workloads a multi-run mode covers.
func selected(o options) ([]string, error) {
	if o.workload == "" {
		return scenarioNames(), nil
	}
	if _, err := loadScenario(o.workload); err != nil {
		return nil, err
	}
	return []string{o.workload}, nil
}

// child runs one run in a process of its own, so that peak memory, the Go
// runtime's state and the goroutine check start clean, and returns its
// report. The child's human-readable lines pass through when show is set.
func child(o options, workload string, seed int64, trace int, show bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace), "-out", o.outDir}
	if o.seconds > 0 {
		args = append(args, "-seconds", fmt.Sprint(o.seconds))
	}
	if o.lenient {
		args = append(args, "-lenient")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if show {
		fmt.Println(strings.Join(lines[:max(len(lines)-1, 0)], "\n"))
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: last line of output is not a report: %w", workload, err)
	}
	return &rep, nil
}

// runAll prints every metric of every selected workload: an untraced run
// for the end-to-end metrics, then a traced run for the layers.
func runAll(o options) error {
	names, err := selected(o)
	if err != nil {
		return err
	}
	for _, name := range names {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(o, name, o.seed, trace, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRepeat is the tool behind the benchmark's acceptance rule and every
// later performance claim: it runs the selected workloads n times, each
// time with another seed and in alternating order, and prints per
// end-to-end metric the median, the quartiles, their distance as a share
// of the median, and (max − min)/median. It fails when the first and the
// second half of the runs disagree by more than the metric's bound, or
// when a metric other than setup_s spreads wider than its bound.
func runRepeat(o options, n int) error {
	names, err := selected(o)
	if err != nil {
		return err
	}
	got := map[string]map[string][]float64{} // workload → metric → one value per run
	for _, name := range names {
		got[name] = map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for _, name := range order {
			rep, err := child(o, name, o.seed+int64(i), 0, false)
			if err != nil {
				return err
			}
			for m, x := range rep.Metrics {
				got[name][m] = append(got[name][m], x.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, n, name)
		}
	}
	var bad []string
	for _, name := range names {
		fmt.Printf("%s (%d runs, seeds %d..%d)\n", name, n, o.seed, o.seed+int64(n)-1)
		fmt.Printf("  %-18s %12s %12s %12s %9s %9s %9s %7s\n", "metric", "q1", "median", "q3", "iqr/med", "range/med", "half-diff", "bound")
		for _, d := range endToEnd {
			xs := got[name][d.Name]
			if len(xs) < 2 {
				return fmt.Errorf("-repeat needs at least 2 runs")
			}
			q1, med, q3, err := stat.Quartiles(xs)
			if err != nil {
				return err
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			first, second := stat.Median(xs[:len(xs)/2]), stat.Median(xs[len(xs)/2:])
			worse := (second - first) / first
			if d.Better == "higher" {
				worse = -worse
			}
			spread := (q3 - q1) / med
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %9.4f %9.4f %+9.4f %7.2f\n",
				d.Name, q1, med, q3, spread, (hi-lo)/med, worse, d.Bound)
			if math.Abs(worse) > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: halves differ by %.3f, bound %.2f", name, d.Name, worse, d.Bound))
			}
			if d.Name != "setup_s" && spread > d.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: spread %.3f, bound %.2f", name, d.Name, spread, d.Bound))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("unsteady:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
