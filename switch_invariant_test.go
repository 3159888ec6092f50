package dope_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dope"
	"dope/internal/apps"
	"dope/internal/core"
)

// This file checks the alternative-switch protocol's invariants under
// generated schedules (ROADMAP aim 3). A switch starts the successor at the
// suspension request and drains the predecessor behind it, so the drain
// barrier no longer enforces anything by itself: whatever the history of
// SetConfig flips, resizes and SetMechanism calls, and however it ends
// (Stop or end of input),
//
//   - every claimed item is completed exactly once and the output multiset
//     equals that of the all-extents-1 run that never switches,
//   - two instances of one alternative are never alive together, nor more
//     than two instances in all,
//   - Suspensions() counts exactly the installs that changed the root
//     alternative (plus the final Stop),
//   - the context pool returns to full.

// census wraps the Make and Fini callbacks of every root alternative to
// keep count of live instances: one is alive from the entry of its Make to
// the return of its last stage's Fini.
type census struct {
	mu         sync.Mutex
	live       []int
	total      int
	violations []string
}

func (c *census) enter(alt int, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live[alt]++
	c.total++
	if c.live[alt] > 1 {
		c.violations = append(c.violations, fmt.Sprintf("%d live instances of alternative %q", c.live[alt], name))
	}
	if c.total > 2 {
		c.violations = append(c.violations, fmt.Sprintf("%d live instances in all", c.total))
	}
}

func (c *census) leave(alt int) {
	c.mu.Lock()
	c.live[alt]--
	c.total--
	c.mu.Unlock()
}

// takeCensus instruments spec's root alternatives and returns their census.
func takeCensus(spec *core.NestSpec) *census {
	c := &census{live: make([]int, len(spec.Alts))}
	for i, alt := range spec.Alts {
		i, alt, inner := i, alt, alt.Make
		alt.Make = func(item any) (*core.AltInstance, error) {
			c.enter(i, alt.Name)
			inst, err := inner(item)
			if err != nil {
				c.leave(i)
				return inst, err
			}
			var left atomic.Int32
			left.Store(int32(len(inst.Stages)))
			for s := range inst.Stages {
				fini := inst.Stages[s].Fini
				inst.Stages[s].Fini = func() {
					if fini != nil {
						fini()
					}
					if left.Add(-1) == 0 {
						c.leave(i)
					}
				}
			}
			return inst, nil
		}
	}
	return c
}

// subject is one application under test with its input and its output
// accounting. outputs is the multiset of results (sorted); the apps expose
// only a completion count, rendered as that many zeros.
type subject struct {
	spec      *core.NestSpec
	feed      func(id int)
	closeIn   func()
	outputs   func() []int
	unclaimed func() int
}

const scheduleItems = 120

func pipelineSubject() *subject {
	src := make(chan int, scheduleItems)
	var mu sync.Mutex
	var out []int
	stages := []dope.PipeStage[int]{
		{Name: "a", Fn: func(v, _ int) int { return v*2 + 1 }},
		{Name: "b", Par: true, Fn: func(v, _ int) int { time.Sleep(20 * time.Microsecond); return v + 7 }},
		{Name: "c", Par: true, Fn: func(v, _ int) int { runtime.Gosched(); return v * 3 }},
		{Name: "d", Fn: func(v, _ int) int { return v ^ 0x55 }},
	}
	spec := dope.ChannelPipeline("pipe", src, stages, func(v int) {
		mu.Lock()
		out = append(out, v)
		mu.Unlock()
	}, dope.PipelineOptions{Fused: true, QueueCap: 4})
	return &subject{
		spec:    spec,
		feed:    func(id int) { src <- id },
		closeIn: func() { close(src) },
		outputs: func() []int {
			mu.Lock()
			defer mu.Unlock()
			sorted := append([]int(nil), out...)
			sort.Ints(sorted)
			return sorted
		},
		unclaimed: func() int { return len(src) },
	}
}

func serverSubject(build func(*apps.Server) *core.NestSpec) *subject {
	s := apps.NewServer(nil)
	return &subject{
		spec:    build(s),
		feed:    func(id int) { _ = s.Work.Enqueue(&apps.Request{ID: id, Size: 1, Arrived: time.Now()}) },
		closeIn: s.Close,
		outputs: func() []int {
			if c, m := s.Resp.Count(), s.Meter.Total(); c != m {
				return []int{-1} // recorder and meter disagree: never equals a reference
			}
			return make([]int, s.Resp.Count())
		},
		unclaimed: s.Work.Len,
	}
}

var subjects = []struct {
	name  string
	build func() *subject
}{
	{"pipeline", pipelineSubject},
	{"ferret", func() *subject {
		return serverSubject(func(s *apps.Server) *core.NestSpec {
			return apps.NewFerret(s, apps.FerretParams{UnitsBase: 8})
		})
	}},
	{"dedup", func() *subject {
		return serverSubject(func(s *apps.Server) *core.NestSpec {
			return apps.NewDedup(s, apps.DedupParams{ChunksPerItem: 4, UnitsPerChunk: 32})
		})
	}},
}

// flipper is a mechanism that proposes random configurations, alternative
// flips included, until told to be quiet.
type flipper struct {
	rng   *rand.Rand // control goroutine only
	spec  *core.NestSpec
	quiet atomic.Bool
	calls atomic.Int64
}

func (m *flipper) Name() string { return "flipper" }

func (m *flipper) Reconfigure(r *core.Report) *core.Config {
	m.calls.Add(1)
	if m.quiet.Load() {
		return nil
	}
	switch m.rng.Intn(4) {
	case 0:
		return randomConfig(m.rng, m.spec, 1-r.Config.Alt)
	case 1:
		return randomConfig(m.rng, m.spec, r.Config.Alt)
	}
	return nil
}

// settle silences the mechanism and waits until the control loop has
// finished installing whatever it had decided before: the loop is
// sequential, so a call that begins after quiet was set follows the
// previous call's install.
func (m *flipper) settle(e *core.Exec) {
	m.quiet.Store(true)
	e.SetMechanism(m)
	n := m.calls.Load()
	for m.calls.Load() == n {
		time.Sleep(100 * time.Microsecond)
	}
}

func randomConfig(rng *rand.Rand, spec *core.NestSpec, alt int) *core.Config {
	cfg := &core.Config{Alt: alt, Extents: make([]int, len(spec.Alt(alt).Stages))}
	for i := range cfg.Extents {
		cfg.Extents[i] = 1 + rng.Intn(4)
	}
	return cfg
}

// reference runs the subject with every extent 1 and no reconfiguration.
func reference(t *testing.T, build func() *subject) []int {
	t.Helper()
	sub := build()
	e, err := core.New(sub.spec, core.WithContexts(8))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < scheduleItems; id++ {
		sub.feed(id)
	}
	sub.closeIn()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return sub.outputs()
}

// runSchedule drives one generated schedule and checks the invariants.
func runSchedule(t *testing.T, build func() *subject, want []int, seed int64, stop bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sub := build()
	cen := takeCensus(sub.spec)

	var evMu sync.Mutex
	alts := []int{0} // the initial configuration, then every installed one
	e, err := core.New(sub.spec, core.WithContexts(8),
		core.WithControlInterval(time.Millisecond),
		core.WithTrace(func(ev core.Event) {
			if ev.Kind == core.EventReconfigure {
				evMu.Lock()
				alts = append(alts, ev.Config.Alt)
				evMu.Unlock()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	mech := &flipper{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), spec: sub.spec}

	fed := 0
	feed := func(n int) {
		for ; n > 0 && fed < scheduleItems; n-- {
			sub.feed(fed)
			fed++
		}
	}
	for fed < scheduleItems {
		feed(1 + rng.Intn(10))
		cur := e.CurrentConfig().Alt
		switch op := rng.Intn(10); {
		case op < 3: // one flip
			e.SetConfig(randomConfig(rng, sub.spec, 1-cur))
		case op < 5: // A→B→A, or A→B→A→B, inside one drain
			for i, n := 0, 2+rng.Intn(2); i < n; i++ {
				cur = 1 - cur
				e.SetConfig(randomConfig(rng, sub.spec, cur))
			}
		case op < 7: // a flip racing a resize
			resize, flip := randomConfig(rng, sub.spec, cur), randomConfig(rng, sub.spec, 1-cur)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.SetConfig(resize)
			}()
			e.SetConfig(flip)
			wg.Wait()
		case op < 8:
			if rng.Intn(2) == 0 {
				e.SetMechanism(mech)
			} else {
				e.SetMechanism(nil)
			}
		default:
			time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
		}
	}
	mech.settle(e)
	if stop {
		e.Stop()
	} else {
		sub.closeIn()
	}
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("seed %d: Wait: %v", seed, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("seed %d: Wait hung", seed)
	}

	flips := uint64(0)
	evMu.Lock()
	for i := 1; i < len(alts); i++ {
		if alts[i] != alts[i-1] {
			flips++
		}
	}
	evMu.Unlock()
	wantSusp := flips
	if stop {
		wantSusp++
	}
	if got := e.Suspensions(); got != wantSusp {
		t.Errorf("seed %d: %d suspensions for %d effective alternative flips (stop=%v)", seed, got, flips, stop)
	}
	cen.mu.Lock()
	for _, v := range cen.violations {
		t.Errorf("seed %d: %s", seed, v)
	}
	if cen.total != 0 {
		t.Errorf("seed %d: %d instances still alive after Wait", seed, cen.total)
	}
	cen.mu.Unlock()
	if busy := e.Contexts().Busy(); busy != 0 {
		t.Errorf("seed %d: pool busy = %d after Wait", seed, busy)
	}

	got := sub.outputs()
	if !stop {
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: outputs differ from the all-extents-1 run: %d results, want %d", seed, len(got), len(want))
		}
		return
	}
	// Stopped: what was claimed was completed exactly once, the rest is
	// still in the input.
	if len(got)+sub.unclaimed() != scheduleItems {
		t.Errorf("seed %d: %d completed + %d unclaimed != %d fed", seed, len(got), sub.unclaimed(), scheduleItems)
	}
	if !subMultiset(got, want) {
		t.Errorf("seed %d: outputs of the stopped run are not a sub-multiset of the reference", seed)
	}
}

// subMultiset reports whether sorted a is contained in sorted b.
func subMultiset(a, b []int) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

func TestSwitchInvariantsUnderGeneratedSchedules(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			want := reference(t, sub.build)
			if len(want) != scheduleItems {
				t.Fatalf("reference run produced %d results, want %d", len(want), scheduleItems)
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				runSchedule(t, sub.build, want, seed, seed%2 == 0)
			}
		})
	}
}
