package mechanism

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dope/internal/core"
	"dope/internal/platform"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.golden from the current mechanisms")

const (
	decisionTicks    = 80
	decisionFlipTick = 40
	decisionContexts = 16
)

// plant is the closed loop the decision script drives: it renders the
// current configuration into a synthetic report whose exec times, loads and
// power reading are drawn from a seeded source, and adopts whatever
// configuration the mechanism returns. Stage iteration counts restart from
// zero whenever a nest's alternative changes, as the monitors' do.
type plant struct {
	spec  *core.NestSpec
	cfg   *core.Config
	rng   *rand.Rand
	since map[string]int // nest path -> tick its alternative last changed
	tick  int
}

func newPlant(spec *core.NestSpec, seed int64) *plant {
	return &plant{spec: spec, cfg: core.DefaultConfig(spec), rng: rand.New(rand.NewSource(seed)), since: map[string]int{}}
}

func (p *plant) report() *core.Report {
	watts := 400 + 12*float64(core.Demand(p.spec, p.cfg)) + 10*p.rng.Float64()
	feat := platform.NewFeatures()
	feat.Register(platform.FeatureSystemPower, func() float64 { return watts })
	return &core.Report{
		Contexts: decisionContexts,
		Features: feat,
		Config:   p.cfg.Clone(),
		Root:     p.nest(p.spec, p.cfg, p.spec.Name),
	}
}

func (p *plant) nest(spec *core.NestSpec, cfg *core.Config, path string) *core.NestReport {
	alt := spec.Alts[cfg.Alt]
	nr := &core.NestReport{Name: spec.Name, Path: path, Spec: spec, AltIndex: cfg.Alt, AltName: alt.Name}
	iters := uint64(p.tick - p.since[path])
	for i := range alt.Stages {
		st := &alt.Stages[i]
		ext := cfg.Extents[i]
		base := 0.001 * float64(1+(i*7+cfg.Alt*3)%5)
		exec := base * (1 + 0.4*p.rng.Float64()) * (1 + 0.03*float64(ext))
		load := 8 * p.rng.Float64()
		if st.Nest != nil {
			// The work queue of a server breathes slowly between idle and
			// saturated, so threshold and linear mechanisms cross both ways.
			load = math.Max(0, 10+10*math.Sin(float64(p.tick)/6)+2*p.rng.NormFloat64())
		}
		nr.Stages = append(nr.Stages, core.StageReport{
			Name: st.Name, Type: st.Type, MinDoP: st.MinDoP, MaxDoP: st.MaxDoP,
			HasNest: st.Nest != nil, Extent: ext,
			ExecTime: exec, MeanExecTime: base, Iterations: iters, Load: load,
			Rate: float64(ext) / exec,
		})
		if st.Nest != nil {
			if nr.Children == nil {
				nr.Children = map[string]*core.NestReport{}
			}
			child := st.Nest
			nr.Children[child.Name] = p.nest(child, cfg.Child(child.Name), path+"/"+child.Name)
		}
	}
	return nr
}

// adopt installs a returned configuration, noting alternative changes.
func (p *plant) adopt(next *core.Config) {
	next = next.Clone()
	next.Normalize(p.spec)
	p.noteAltChanges(p.spec, p.cfg, next, p.spec.Name)
	p.cfg = next
}

func (p *plant) noteAltChanges(spec *core.NestSpec, old, next *core.Config, path string) {
	if old == nil || old.Alt != next.Alt {
		p.since[path] = p.tick
	}
	for _, st := range spec.Alts[next.Alt].Stages {
		if st.Nest != nil {
			p.noteAltChanges(st.Nest, old.Child(st.Nest.Name), next.Child(st.Nest.Name), path+"/"+st.Nest.Name)
		}
	}
}

// flip switches the alternative of the nest at path under the mechanism,
// as an administrator's SetConfig does, with every extent back at 1.
func (p *plant) flip(path string) {
	next := p.cfg.Clone()
	node := next
	for _, name := range strings.Split(path, "/")[1:] {
		node = node.Child(name)
	}
	node.Alt = 1 - node.Alt
	node.Extents = nil
	next.Normalize(p.spec)
	for i := range node.Extents {
		node.Extents[i] = 1
	}
	p.since[path] = p.tick
	p.cfg = next
}

// nestedPipelineSpec nests pipelineSpec one level down, under a root with a
// single PAR stage, so Path-scoped mechanisms tune "app/ferret".
func nestedPipelineSpec() *core.NestSpec {
	return &core.NestSpec{Name: "app", Alts: []*core.AltSpec{{
		Name:   "outer",
		Stages: []core.StageSpec{{Name: "serve", Type: core.PAR, Nest: pipelineSpec()}},
		Make:   noopMake,
	}}}
}

// TestDecisionsGolden drives every shipped mechanism through one fixed,
// seeded script of synthetic reports — varying exec times, loads and power,
// with one alternative flip of the tuned nest halfway — and compares every
// returned configuration (nil included) against testdata/decisions.golden.
// Refactors of the mechanisms must leave that file untouched; regenerate it
// with -update-decisions only for an intended change of policy.
func TestDecisionsGolden(t *testing.T) {
	type run struct {
		name string
		spec func() *core.NestSpec
		flip string
		mech func() core.Mechanism
	}
	flat := func(name string, mech func() core.Mechanism) run {
		return run{name, pipelineSpec, "ferret", mech}
	}
	nested := func(name string, mech func() core.Mechanism) run {
		return run{name + "@app/ferret", nestedPipelineSpec, "app/ferret", mech}
	}
	server := func(name string, mech func() core.Mechanism) run {
		return run{name + "@server", serverSpec, "app/inner", mech}
	}
	runs := []run{
		flat("Proportional", func() core.Mechanism { return &Proportional{} }),
		server("Proportional", func() core.Mechanism { return &Proportional{Threads: 12} }),
		server("WQT-H", func() core.Mechanism { return &WQTH{Threads: 16, Mmax: 4, Threshold: 8} }),
		server("WQT-H/Mmax1", func() core.Mechanism { return &WQTH{Mmax: 1, Threshold: 8, NOff: 1, NOn: 1} }),
		server("WQ-Linear", func() core.Mechanism { return &WQLinear{Threads: 16, Mmax: 8, Mmin: 1, Qmax: 14} }),
		flat("TB", func() core.Mechanism { return &TBF{Threads: 16, DisableFusion: true} }),
		flat("TBF", func() core.Mechanism { return &TBF{} }),
		flat("TBF/fuse", func() core.Mechanism { return &TBF{FusionThreshold: 0.05} }),
		flat("FDP", func() core.Mechanism { return &FDP{Threads: 12} }),
		flat("SEDA", func() core.Mechanism { return &SEDA{HighWater: 4, LowWater: 1} }),
		flat("TPC", func() core.Mechanism { return &TPC{Threads: 16} }),
		flat("TPC/watts", func() core.Mechanism { return &TPC{Threads: 16, Budget: 560} }),
		flat("EDP", func() core.Mechanism { return &EDP{} }),
		flat("LoadProportional", func() core.Mechanism { return &LoadProportional{Threads: 12} }),
		flat("Gradient", func() core.Mechanism { return &Gradient{} }),
		nested("TBF", func() core.Mechanism { return &TBF{Path: "app/ferret"} }),
		nested("FDP", func() core.Mechanism { return &FDP{Threads: 12, Path: "app/ferret"} }),
		nested("TPC/watts", func() core.Mechanism { return &TPC{Budget: 560, Path: "app/ferret"} }),
		nested("EDP", func() core.Mechanism { return &EDP{Threads: 12, Path: "app/ferret"} }),
		nested("SEDA", func() core.Mechanism { return &SEDA{HighWater: 4, LowWater: 1, Path: "app/ferret"} }),
		nested("LoadProportional", func() core.Mechanism { return &LoadProportional{Path: "app/ferret"} }),
	}
	var out strings.Builder
	for seed, r := range runs {
		p := newPlant(r.spec(), int64(seed)+1)
		m := r.mech()
		for p.tick = 0; p.tick < decisionTicks; p.tick++ {
			if p.tick == decisionFlipTick {
				p.flip(r.flip)
			}
			cfg := m.Reconfigure(p.report())
			line := "nil"
			if cfg != nil {
				b, err := json.Marshal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				line = string(b)
				p.adopt(cfg)
			}
			fmt.Fprintf(&out, "%s %d %s\n", r.name, p.tick, line)
		}
	}
	const golden = "testdata/decisions.golden"
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("decision %d differs from %s:\n got  %s\n want %s", i+1, golden, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the script produced %d", golden, len(wantLines), len(gotLines))
	}
}
