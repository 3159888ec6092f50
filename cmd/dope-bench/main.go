// Command dope-bench regenerates the paper's evaluation artifacts. Each
// experiment id corresponds to one table or figure of "Parallelism
// Orchestration using DoPE" (PLDI 2011); see DESIGN.md for the index.
//
// Usage:
//
//	dope-bench -list
//	dope-bench -exp fig2c
//	dope-bench -exp table5 -scale 0.5
//	dope-bench -all
//	dope-bench -bench beginend -label after -out BENCH_beginend.json -gate
//	dope-bench -bench queue -label after -out BENCH_queue.json -gate
//	dope-bench -bench altswitch -label after -out BENCH_altswitch.json
//
// Simulated experiments accept -scale to shrink/grow the task counts
// relative to the paper's 500-task runs; live experiments run the real
// DoPE executive at a fixed reduced scale.
//
// The -bench mode runs the executive's own overhead microbenchmarks
// (internal/microbench) and appends a labeled entry to a BENCH_*.json
// trajectory file; -gate additionally fails the process when the
// uncontended Begin/End path, or a hand-off through a bounded queue,
// allocates, or when an alternative switch leaves the input unclaimed for
// half a pipeline depth. GOMAXPROCS in the environment selects the parallelism an entry
// is recorded at; a file keeps one entry per label and GOMAXPROCS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dope/internal/harness"
	"dope/internal/microbench"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id to run (see -list)")
		scale  = flag.Float64("scale", 1.0, "task-count scale relative to the paper's runs")
		list   = flag.Bool("list", false, "list available experiments")
		all    = flag.Bool("all", false, "run every deterministic experiment (the simulated ones; regenerates results_sim.txt)")
		format = flag.String("format", "text", "output format: text | csv | json | plot")
		bench  = flag.String("bench", "", "overhead microbenchmark suite to run: beginend | queue | altswitch")
		out    = flag.String("out", "", "append the -bench entry to this BENCH_*.json trajectory file")
		label  = flag.String("label", "dev", "label for the -bench trajectory entry")
		gate   = flag.Bool("gate", false, "with -bench: exit nonzero if a gated case of the suite allocates (altswitch: idles the head too long)")
	)
	flag.Parse()
	outputFormat = *format

	switch {
	case *list:
		for _, e := range harness.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Desc)
		}
	case *bench != "":
		runBench(*bench, *out, *label, *gate)
	case *all:
		for _, e := range harness.Experiments() {
			if e.Deterministic {
				run(e.ID, *scale)
			}
		}
	case *exp != "":
		run(*exp, *scale)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runBench runs one microbenchmark suite, prints the results, appends a
// labeled entry to the trajectory file (when -out is given), and applies
// the allocation gate (when -gate is given).
func runBench(suite, outFile, label string, gate bool) {
	var results []microbench.Result
	switch suite {
	case "beginend":
		results = microbench.BeginEnd()
	case "queue":
		results = microbench.Queue()
	case "altswitch":
		var err error
		if results, err = microbench.AltSwitch(); err != nil {
			fmt.Fprintln(os.Stderr, "dope-bench:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "dope-bench: unknown -bench suite %q (want beginend, queue or altswitch)\n", suite)
		os.Exit(2)
	}
	for _, r := range results {
		fmt.Printf("%-28s %12d iters %12.1f ns/op %6d B/op %6d allocs/op",
			r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.ItemsInWindow > 0 {
			fmt.Printf("  items_in_window %g", r.ItemsInWindow)
		}
		fmt.Println()
	}
	if outFile != "" {
		entry := microbench.Entry{
			Label:      label,
			Date:       time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Results:    results,
		}
		if err := appendEntry(outFile, entry); err != nil {
			fmt.Fprintln(os.Stderr, "dope-bench:", err)
			os.Exit(1)
		}
	}
	if gate {
		if err := microbench.Gate(results); err != nil {
			fmt.Fprintln(os.Stderr, "dope-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("gate: ok (%s suite)\n", suite)
	}
}

// appendEntry reads the existing trajectory (if any), appends entry, and
// rewrites the file. An entry with the same label and GOMAXPROCS replaces
// its predecessor so re-running `make bench` does not grow the file without
// bound.
func appendEntry(path string, entry microbench.Entry) error {
	var entries []microbench.Entry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	replaced := false
	for i := range entries {
		if entries[i].Label == entry.Label && entries[i].GoMaxProcs == entry.GoMaxProcs {
			entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, entry)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// outputFormat selects how run renders tables.
var outputFormat = "text"

func run(id string, scale float64) {
	tab, err := harness.Run(id, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-bench:", err)
		os.Exit(1)
	}
	switch outputFormat {
	case "csv":
		err = tab.FprintCSV(os.Stdout)
	case "json":
		err = tab.FprintJSON(os.Stdout)
	case "plot":
		err = tab.FprintPlot(os.Stdout, 14)
	default:
		tab.Fprint(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-bench:", err)
		os.Exit(1)
	}
}
