// Command dope-replay replays a recorded monitoring log (produced by
// `dope-trace -record <file>`) against a mechanism, printing the decisions
// it would have made — offline mechanism development, the workflow the
// paper's separation of concerns enables for its third agent (§5).
//
// Usage:
//
//	dope-trace -app ferret -goal static -record run.jsonl
//	dope-replay -log run.jsonl -mechanism tbf
//	dope-replay -log run.jsonl -mechanism wqlinear -threads 24
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dope"
	"dope/internal/replay"
)

func main() {
	var (
		logPath = flag.String("log", "", "JSONL monitoring log (from dope-trace -record)")
		mech    = flag.String("mechanism", "tbf", "mechanism: a name PUT /mechanism accepts ("+names()+")")
		threads = flag.Int("threads", 24, "hardware-thread budget")
		watts   = flag.Float64("watts", 720, "power budget for tpc")
	)
	flag.Parse()
	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-replay:", err)
		os.Exit(1)
	}
	defer f.Close()
	entries, err := replay.ReadLog(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-replay:", err)
		os.Exit(1)
	}
	name, decisions := *mech, []replay.Decision(nil)
	if name != "static" {
		newMech, ok := dope.MechanismCatalog(*threads, *watts)[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dope-replay: unknown mechanism %q (want %s)\n", name, names())
			os.Exit(2)
		}
		m := newMech()
		name, decisions = m.Name(), replay.Replay(entries, m)
	}
	fmt.Printf("replayed %d snapshots through %s: %d decisions\n",
		len(entries), name, len(decisions))
	for _, d := range decisions {
		fmt.Printf("  t=%8.3fs snapshot %3d -> %s\n", d.TimeSec, d.Index, d.Config)
	}
	if len(decisions) == 0 {
		fmt.Println("  (the mechanism held the recorded configuration throughout)")
	}
}

// names lists the mechanisms -mechanism accepts: "static" (no mechanism,
// so no decisions) and the catalog the admin console serves.
func names() string {
	out := []string{"static"}
	for name := range dope.MechanismCatalog(0, 0) {
		out = append(out, name)
	}
	sort.Strings(out[1:])
	return strings.Join(out, " | ")
}
