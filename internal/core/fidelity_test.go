package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dope/internal/monitor"
	"dope/internal/platform"
)

// countingClock is a virtual clock that counts the reads the executive
// makes, so a test can tell a timed section from an untimed one.
type countingClock struct {
	*platform.VirtualClock
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.VirtualClock.Now()
}

// section is one Begin..End window of a schedule, in nanoseconds of virtual
// time.
type section struct {
	slot       int
	begin, end int64
}

// dist is a lognormal distribution of section lengths: median ns, shape
// sigma (the coefficient of variation is about sigma for small sigma, 0.53
// at 0.5), never below floor ns.
type dist struct{ median, sigma, floor float64 }

func (d dist) draw(rng *rand.Rand) int64 {
	return int64(max(d.floor, d.median*math.Exp(d.sigma*rng.NormFloat64())))
}

// loneSchedule is one slot's sections: short hand-off gaps, and one gap in
// fifty an idle wait of 200 µs on average.
func loneSchedule(rng *rand.Rand, n int, d dist) []section {
	out := make([]section, n)
	t := int64(0)
	for i := range out {
		gap := int64(rng.ExpFloat64() * 300)
		if rng.Intn(50) == 0 {
			gap = int64(rng.ExpFloat64() * 200_000)
		}
		b := t + gap
		t = b + d.draw(rng)
		out[i] = section{0, b, t}
	}
	return out
}

// queueSchedule serves n items with `slots` workers fed from one FIFO queue.
// Items arrive in bursts of 20 to 400, bursts about a millisecond apart, so
// the stage alternates between every slot busy and every slot idle: the
// stage-wide idle stretches the rate must leave out. Each item goes to the
// slot that frees first, after a short hand-off gap.
func queueSchedule(rng *rand.Rand, n, slots int, d dist) []section {
	free := make([]int64, slots)
	out := make([]section, 0, n)
	arrive := int64(0)
	for len(out) < n {
		arrive += int64(rng.ExpFloat64() * 1_000_000)
		for b := 20 + rng.Intn(381); b > 0 && len(out) < n; b-- {
			s := 0
			for i := range free {
				if free[i] < free[s] {
					s = i
				}
			}
			begin := max(free[s]+int64(rng.ExpFloat64()*300), arrive)
			free[s] = begin + d.draw(rng)
			out = append(out, section{s, begin, free[s]})
		}
	}
	return out
}

// replay drives a schedule through real Worker.Begin/End calls on
// hand-built workers, one per slot, each with its own monitor recorder as
// the worker group gives it, folding every 10 ms of virtual time as the
// control loop does. With full set, every section is timed (the reference);
// otherwise the workers sample as they do in production. It returns the
// stage's snapshot and the number of clock reads Begin/End made.
func replay(t *testing.T, sched []section, slots int, full bool) (monitor.StageSnapshot, int) {
	t.Helper()
	start := time.Unix(1000, 0)
	clk := &countingClock{VirtualClock: platform.NewVirtualClock(start)}
	e, err := New(misuseSpec(func(*Worker) Status { return Finished }),
		WithContexts(slots), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	st := e.mon.Stage(monitor.Key{Nest: "fidelity", Stage: "s"})
	ws := make([]*Worker, slots)
	for i := range ws {
		st.ObserveWorkerStart()
		ws[i] = &Worker{exec: e, slot: i, rec: st.NewSlotRecorder(), samp: newSampler(i)}
	}
	type event struct {
		at    int64
		slot  int
		begin bool
	}
	evs := make([]event, 0, 2*len(sched))
	for _, s := range sched {
		evs = append(evs, event{s.begin, s.slot, true}, event{s.end, s.slot, false})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	clk.reads = 0
	const tick = int64(10 * time.Millisecond)
	nextFold := tick
	for _, ev := range evs {
		for ev.at >= nextFold {
			st.Fold()
			nextFold += tick
		}
		clk.Set(start.Add(time.Duration(ev.at)))
		w := ws[ev.slot]
		if ev.begin && full {
			w.samp.skip = 0
		}
		step(w, ev.begin)
	}
	reads := clk.reads
	for _, w := range ws {
		w.rec.Release()
	}
	return st.Snapshot(), reads
}

// step applies one schedule event to its slot's worker. The schedule
// interleaves slots, so a call opens or closes one section and the pairing
// holds across calls, not within one.
func step(w *Worker, begin bool) {
	if begin {
		w.Begin() //dopevet:ignore beginend,suspendcheck,tokenhold a later call closes the section; hand-built workers never suspend
		return
	}
	w.End() //dopevet:ignore beginend,suspendcheck closes the section an earlier call opened
}

// TestMonitorFidelitySampledTiming pins the accuracy of sampled exec timing:
// over seeded distributions of 1 µs sections with idle gaps, a 1-slot stage
// and a 4-slot stage fed in bursts report ExecTime, MeanExecTime and Rate
// within 2 % of the same schedule timed on every section. Steady sections
// (CV 0.1) are sampled, so the run reads the clock far less often; noisy
// ones (CV 0.53) need nearly every section a tick holds and stay timed.
func TestMonitorFidelitySampledTiming(t *testing.T) {
	steady, noisy := dist{1000, 0.1, 0}, dist{1000, 0.5, 0}
	cases := []struct {
		name    string
		slots   int
		sampled bool
		sched   []section
	}{
		{"SEQ/1-slot/steady", 1, true, loneSchedule(rand.New(rand.NewSource(1)), 200_000, steady)},
		{"SEQ/1-slot/noisy", 1, false, loneSchedule(rand.New(rand.NewSource(2)), 200_000, noisy)},
		{"PAR/4-slot/steady", 4, true, queueSchedule(rand.New(rand.NewSource(3)), 200_000, 4, steady)},
		{"PAR/4-slot/noisy", 4, false, queueSchedule(rand.New(rand.NewSource(4)), 200_000, 4, noisy)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, refReads := replay(t, c.sched, c.slots, true)
			got, reads := replay(t, c.sched, c.slots, false)
			if got.Iterations != uint64(len(c.sched)) || ref.Iterations != got.Iterations {
				t.Fatalf("iterations: sampled %d, reference %d, want %d", got.Iterations, ref.Iterations, len(c.sched))
			}
			for _, m := range []struct {
				name     string
				got, ref float64
			}{
				{"ExecTime", got.ExecTime, ref.ExecTime},
				{"MeanExecTime", got.MeanExecTime, ref.MeanExecTime},
				{"Rate", got.Rate, ref.Rate},
			} {
				if m.ref <= 0 || math.Abs(m.got-m.ref)/m.ref > 0.02 {
					t.Errorf("%s = %.6g sampled, %.6g fully timed: off by more than 2%%", m.name, m.got, m.ref)
				}
			}
			if refReads != 2*len(c.sched) {
				t.Errorf("reference read the clock %d times, want 2 per section (%d)", refReads, 2*len(c.sched))
			}
			// A lone slot skips the clock on untimed sections altogether; a
			// slot with siblings still stamps every Begin.
			t.Logf("%d clock reads for %d sections (fully timed: %d)", reads, len(c.sched), refReads)
			limit := len(c.sched) / 4
			if c.slots > 1 {
				limit += len(c.sched)
			}
			if c.sampled && reads > limit {
				t.Errorf("sampled run read the clock %d times for %d sections, want at most %d", reads, len(c.sched), limit)
			}
		})
	}
}

// TestLongSectionsTimedEveryWindow pins the other half of the timing rule:
// a stage whose sections are long relative to a clock read is timed on every
// section, so its lifetime mean is exact.
func TestLongSectionsTimedEveryWindow(t *testing.T) {
	sched := loneSchedule(rand.New(rand.NewSource(5)), 5_000, dist{50_000, 0.5, longSectionNanos})
	var sum int64
	for _, s := range sched {
		sum += s.end - s.begin
	}
	got, reads := replay(t, sched, 1, false)
	if reads != 2*len(sched) {
		t.Fatalf("long sections read the clock %d times, want 2 per section (%d)", reads, 2*len(sched))
	}
	want := float64(sum) / float64(len(sched)) / 1e9
	if math.Abs(got.MeanExecTime-want) > 1e-12 {
		t.Fatalf("MeanExecTime = %v, want the exact mean %v", got.MeanExecTime, want)
	}
}
