package main

import (
	"fmt"
	"math"
	"os"
	"sort"

	"dope/internal/core"
	"dope/internal/replay"
)

// stageAgg accumulates one stage's what-if estimates across snapshots.
type stageAgg struct {
	name       string
	payoffDoP  float64
	payoffSvc  float64
	demand     float64
	samples    int
	bottleneck int
}

// nestAgg accumulates one nest's profile across snapshots.
type nestAgg struct {
	path      string
	stages    map[string]*stageAgg
	order     []string // first-seen stage order, for stable output
	valid     int
	invalid   int
	lastWhy   string
	nonFinite int
}

// runWhatIf reads a snapshot log recorded with -record and prints the
// averaged causal what-if profile per nest. Returns the process exit code:
// nonzero when no snapshot produced a valid profile (nothing to rank) or
// when any snapshot's estimates were non-finite before scrubbing — either
// means the profile cannot be trusted.
func runWhatIf(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-trace:", err)
		return 1
	}
	defer f.Close()
	entries, err := replay.ReadLog(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-trace:", err)
		return 1
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "dope-trace: empty snapshot log")
		return 1
	}

	nests := map[string]*nestAgg{}
	var order []string
	for _, e := range entries {
		var walk func(n *core.NestReport)
		walk = func(n *core.NestReport) {
			if n == nil {
				return
			}
			agg := nests[n.Path]
			if agg == nil {
				agg = &nestAgg{path: n.Path, stages: map[string]*stageAgg{}}
				nests[n.Path] = agg
				order = append(order, n.Path)
			}
			prof := n.WhatIf()
			switch {
			case prof.Reason == "non-finite estimate scrubbed":
				agg.nonFinite++
			case !prof.Valid:
				agg.invalid++
				agg.lastWhy = prof.Reason
			default:
				agg.valid++
				for _, st := range prof.Stages {
					sa := agg.stages[st.Name]
					if sa == nil {
						sa = &stageAgg{name: st.Name}
						agg.stages[st.Name] = sa
						agg.order = append(agg.order, st.Name)
					}
					sa.payoffDoP += st.PayoffDoP
					sa.payoffSvc += st.PayoffService
					sa.demand += st.Demand
					sa.samples++
					if st.Bottleneck {
						sa.bottleneck++
					}
				}
			}
			for _, child := range n.Children {
				walk(child)
			}
		}
		walk(e.Root)
	}

	exit := 0
	anyValid := false
	for _, p := range order {
		agg := nests[p]
		fmt.Printf("== what-if: %s (%d valid / %d total snapshots) ==\n",
			agg.path, agg.valid, agg.valid+agg.invalid+agg.nonFinite)
		if agg.nonFinite > 0 {
			fmt.Printf("  ERROR: %d snapshots produced non-finite payoffs\n", agg.nonFinite)
			exit = 1
		}
		if agg.valid == 0 {
			why := agg.lastWhy
			if why == "" {
				why = "no snapshots"
			}
			fmt.Printf("  no valid profile: %s\n", why)
			continue
		}
		anyValid = true
		rows := make([]*stageAgg, 0, len(agg.order))
		for _, name := range agg.order {
			rows = append(rows, agg.stages[name])
		}
		sort.SliceStable(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.mean(a.payoffDoP) != b.mean(b.payoffDoP) {
				return a.mean(a.payoffDoP) > b.mean(b.payoffDoP)
			}
			return a.mean(a.payoffSvc) > b.mean(b.payoffSvc)
		})
		fmt.Printf("  %-12s %14s %16s %12s %11s\n",
			"stage", "payoff/+1 ctx", "payoff/-10% svc", "demand (ms)", "bottleneck")
		for _, sa := range rows {
			fmt.Printf("  %-12s %14.1f %16.1f %12.3f %10.0f%%\n",
				sa.name, sa.mean(sa.payoffDoP), sa.mean(sa.payoffSvc),
				sa.mean(sa.demand)*1e3,
				100*float64(sa.bottleneck)/float64(sa.samples))
		}
	}
	if !anyValid {
		fmt.Fprintln(os.Stderr, "dope-trace: no nest yielded a valid what-if profile")
		return 1
	}
	return exit
}

// mean averages an accumulated sum over the aggregate's sample count,
// guarding the empty case.
func (s *stageAgg) mean(sum float64) float64 {
	if s.samples == 0 {
		return 0
	}
	v := sum / float64(s.samples)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
