// Command dope-trace runs one of the ported applications on the real DoPE
// executive and streams the executive's reconfiguration decisions — a live
// view of the protocol walkthrough in §6 of the paper.
//
// Usage:
//
//	dope-trace -app ferret -goal throughput -requests 200
//	dope-trace -app x264 -goal response -load 0.8
//	dope-trace -app dedup -goal power -watts 720
//
// With -whatif it runs no application at all: it reads a snapshot log
// recorded by -record and prints the causal what-if profile — each nest's
// stages ranked by the predicted throughput payoff of one more hardware
// context (and of a 10% service-time cut), averaged over the valid
// snapshots. It exits nonzero when the log yields no valid profile or any
// snapshot produced a non-finite payoff:
//
//	dope-trace -app ferret -record run.jsonl
//	dope-trace -whatif run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dope"
	"dope/internal/admin"
	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/replay"
	"dope/internal/workload"
)

func main() {
	var (
		app      = flag.String("app", "ferret", "application: x264 | swaptions | bzip | gimp | ferret | dedup")
		goal     = flag.String("goal", "throughput", "goal: response | throughput | power | static")
		requests = flag.Int("requests", 200, "number of requests to serve")
		loadF    = flag.Float64("load", 0.7, "load factor for response-time goals")
		watts    = flag.Float64("watts", 720, "power budget for -goal power")
		threads  = flag.Int("threads", 24, "hardware-context budget")
		record   = flag.String("record", "", "record monitoring snapshots to this JSONL file (for dope-replay)")
		adminAt  = flag.String("admin", "", "serve the administration endpoint at this address (e.g. localhost:7117)")
		whatif   = flag.String("whatif", "", "offline: print the causal what-if profile of a recorded snapshot log and exit")
	)
	flag.Parse()

	if *whatif != "" {
		os.Exit(runWhatIf(*whatif))
	}

	s := apps.NewServer(nil)
	spec, twoLevel := buildApp(*app, s)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "dope-trace: unknown app %q\n", *app)
		os.Exit(2)
	}

	g := pickGoal(*goal, *threads, *watts)
	start := time.Now()
	d, err := dope.Create(spec, g,
		dope.WithControlInterval(10*time.Millisecond),
		dope.WithTrace(func(ev dope.Event) {
			switch ev.Kind {
			case dope.EventReconfigure:
				fmt.Printf("%8.3fs reconfigure (%s): %s\n",
					time.Since(start).Seconds(), ev.Mechanism, ev.Config)
			case dope.EventResize:
				fmt.Printf("%8.3fs resize %s: %d -> %d workers in place\n",
					time.Since(start).Seconds(), ev.Stage, ev.FromExtent, ev.ToExtent)
			case dope.EventSuspend:
				fmt.Printf("%8.3fs suspend: draining top-level tasks\n", time.Since(start).Seconds())
			case dope.EventDrained:
				fmt.Printf("%8.3fs drained %s, %v after its suspend\n",
					time.Since(start).Seconds(), ev.Nest, ev.Drain.Round(10*time.Microsecond))
			case dope.EventResume:
				fmt.Printf("%8.3fs resume under %s\n", time.Since(start).Seconds(), ev.Config)
			case dope.EventFinish:
				fmt.Printf("%8.3fs finish\n", time.Since(start).Seconds())
			case dope.EventError:
				fmt.Printf("%8.3fs error: %v\n", time.Since(start).Seconds(), ev.Err)
			case dope.EventTaskFailure:
				esc := ""
				if ev.Escalated {
					esc = " (escalated)"
				}
				fmt.Printf("%8.3fs task failure %s/%s -> %s%s: failure %d in window, %d consecutive\n",
					time.Since(start).Seconds(), ev.Nest, ev.Stage, ev.Policy, esc,
					ev.Failures, ev.ConsecFailures)
			case dope.EventTaskStall:
				esc := ""
				if ev.Escalated {
					esc = " (escalated)"
				}
				during := ""
				if ev.DuringDrain {
					during = " during drain"
				}
				fmt.Printf("%8.3fs task stall %s/%s -> %s%s%s: %v over the %v deadline\n",
					time.Since(start).Seconds(), ev.Nest, ev.Stage, ev.Policy, esc, during,
					ev.Stalled.Round(time.Millisecond), ev.Deadline)
			case dope.EventShed:
				fmt.Printf("%8.3fs shed %s/%s: %d items dropped (%d total)\n",
					time.Since(start).Seconds(), ev.Nest, ev.Stage, ev.ShedItems, ev.ShedTotal)
			}
		}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-trace:", err)
		os.Exit(1)
	}
	if g.Name == "max-throughput-under-power" {
		d.RegisterPowerModel(50 * time.Millisecond)
	}

	// Ctrl-C stops the nest through the drain protocol, so the submit loop
	// below unblocks, the recorder flushes its last snapshot, and the log
	// stays parseable.
	defer d.StopOnInterrupt()()

	if *adminAt != "" {
		col, release := d.AttachCollector(512, 20*time.Millisecond)
		defer release()
		go func() {
			fmt.Printf("admin endpoint: http://%s/{report,config,mechanism,stats,series,whatif,healthz}  (dope-top -addr %s)\n",
				*adminAt, *adminAt)
			if err := admin.NewServer(*adminAt, d.AdminHandlerWithCollector(col)).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "dope-trace: admin:", err)
			}
		}()
	}

	// Optional snapshot recording for offline mechanism replay.
	var recDone chan struct{}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dope-trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		rec := replay.NewRecorder(f)
		recDone = make(chan struct{})
		go func() {
			defer close(recDone)
			for {
				select {
				case <-d.Done():
					return
				case <-time.After(20 * time.Millisecond):
					if err := rec.Record(d.Report()); err != nil {
						fmt.Fprintln(os.Stderr, "dope-trace: record:", err)
						return
					}
				}
			}
		}()
		defer func() {
			<-recDone
			fmt.Printf("recorded %d snapshots to %s\n", rec.Count(), *record)
		}()
	}

	// Feed the work queue. Two-level server apps get Poisson arrivals so
	// load-sensitive mechanisms have something to react to; pipelines get a
	// batch.
	if twoLevel {
		seqExec := 0.05 // rough per-request seconds at these parameters
		maxTp := float64(*threads) / seqExec
		arr := workload.NewArrivals(workload.LoadFactor(*loadF).RateFor(maxTp), 7)
	feed:
		for i := 0; i < *requests; i++ {
			select {
			case <-d.Done(): // interrupted: stop feeding, drain what's queued
				break feed
			case <-time.After(arr.Next()):
			}
			s.Submit(1.0)
		}
	} else {
		for i := 0; i < *requests; i++ {
			select {
			case <-d.Done():
			default:
				s.Submit(1.0)
				continue
			}
			break
		}
	}
	s.Close()
	if err := d.Destroy(); err != nil {
		fmt.Fprintln(os.Stderr, "dope-trace:", err)
		os.Exit(1)
	}
	fmt.Printf("served %d requests: mean response %.1f ms, throughput %.1f/s, %d reconfigurations\n",
		int(s.Resp.Count()), s.Resp.MeanResponse()*1000, s.Meter.Overall(), d.Reconfigurations())
}

// buildApp constructs the named application; the bool reports whether it is
// a two-level server app (outer loop over requests).
func buildApp(name string, s *apps.Server) (*core.NestSpec, bool) {
	switch name {
	case "x264":
		return apps.NewTranscode(s, apps.TranscodeParams{Frames: 12, UnitsPerFrame: 800}), true
	case "swaptions":
		return apps.NewSwaptions(s, apps.SwaptionsParams{Chunks: 16, UnitsPerChunk: 600}), true
	case "bzip":
		return apps.NewCompress(s, apps.CompressParams{Blocks: 12, UnitsPerBlock: 800}), true
	case "gimp":
		return apps.NewOilify(s, apps.OilifyParams{Rows: 12, UnitsPerRow: 800}), true
	case "ferret":
		return apps.NewFerret(s, apps.FerretParams{UnitsBase: 150}), false
	case "dedup":
		return apps.NewDedup(s, apps.DedupParams{ChunksPerItem: 10, UnitsPerChunk: 400}), false
	default:
		return nil, false
	}
}

func pickGoal(goal string, threads int, watts float64) dope.Goal {
	switch goal {
	case "response":
		return dope.MinResponseTime(threads, 8, 10)
	case "throughput":
		return dope.MaxThroughput(threads)
	case "power":
		return dope.MaxThroughputUnderPower(threads, watts)
	default:
		return dope.StaticGoal(threads)
	}
}
