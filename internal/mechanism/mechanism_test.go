package mechanism

import (
	"testing"

	"dope/internal/core"
	"dope/internal/platform"
)

// --- report fixtures -------------------------------------------------------

// noopMake satisfies AltSpec.Make for specs used only structurally in tests.
func noopMake(item any) (*core.AltInstance, error) { return nil, nil }

// serverSpec builds the canonical two-level server shape: outer PAR stage
// "outer" nesting "inner" with a pipeline and a fused alternative.
func serverSpec() *core.NestSpec {
	inner := &core.NestSpec{Name: "inner", Alts: []*core.AltSpec{
		{Name: "pipeline", Make: noopMake, Stages: []core.StageSpec{
			{Name: "read", Type: core.SEQ},
			{Name: "work", Type: core.PAR},
			{Name: "write", Type: core.SEQ},
		}},
		{Name: "fused", Make: noopMake, Stages: []core.StageSpec{
			{Name: "all", Type: core.SEQ},
		}},
	}}
	root := &core.NestSpec{Name: "app", Alts: []*core.AltSpec{
		{Name: "outer", Make: noopMake, Stages: []core.StageSpec{
			{Name: "serve", Type: core.PAR, Nest: inner},
		}},
	}}
	return root
}

// serverReport fabricates a Report for serverSpec with the given work-queue
// occupancy and inner stage exec times.
func serverReport(contexts int, occupancy float64, innerAlt int, innerExec []float64) *core.Report {
	spec := serverSpec()
	innerSpec := spec.Alts[0].Stages[0].Nest
	cfg := core.DefaultConfig(spec)
	cfg.Child("inner").Alt = innerAlt

	alt := innerSpec.Alts[innerAlt]
	innerStages := make([]core.StageReport, len(alt.Stages))
	for i := range alt.Stages {
		st := &alt.Stages[i]
		exec := 0.001
		if i < len(innerExec) {
			exec = innerExec[i]
		}
		innerStages[i] = core.StageReport{
			Name: st.Name, Type: st.Type, Extent: 1,
			ExecTime: exec, MeanExecTime: exec, Iterations: 100, Rate: 10,
		}
	}
	rep := &core.Report{
		Contexts: contexts,
		Features: platform.NewFeatures(),
		Config:   cfg,
		Root: &core.NestReport{
			Name: "app", Path: "app", Spec: spec, AltIndex: 0, AltName: "outer",
			Stages: []core.StageReport{{
				Name: "serve", Type: core.PAR, HasNest: true, Extent: 1,
				Load: occupancy, Iterations: 100, ExecTime: 0.01, MeanExecTime: 0.01,
			}},
			Children: map[string]*core.NestReport{
				"inner": {
					Name: "inner", Path: "app/inner", Spec: innerSpec,
					AltIndex: innerAlt, AltName: alt.Name,
					Stages: innerStages,
				},
			},
		},
	}
	return rep
}

// pipelineSpec builds a single-level 6-stage ferret-like pipeline with a
// fused alternative.
func pipelineSpec() *core.NestSpec {
	return &core.NestSpec{Name: "ferret", Alts: []*core.AltSpec{
		{Name: "pipeline", Make: noopMake, Stages: []core.StageSpec{
			{Name: "load", Type: core.SEQ},
			{Name: "seg", Type: core.PAR},
			{Name: "extract", Type: core.PAR},
			{Name: "index", Type: core.PAR},
			{Name: "rank", Type: core.PAR},
			{Name: "out", Type: core.SEQ},
		}},
		{Name: "fused", Make: noopMake, Stages: []core.StageSpec{
			{Name: "in", Type: core.SEQ},
			{Name: "work", Type: core.PAR},
			{Name: "out", Type: core.SEQ},
		}},
	}}
}

// pipelineReport fabricates a Report for pipelineSpec (alternative 0) with
// the given exec times, extents and loads.
func pipelineReport(contexts int, exec []float64, extents []int, loads []float64) *core.Report {
	spec := pipelineSpec()
	cfg := core.DefaultConfig(spec)
	copy(cfg.Extents, extents)
	alt := spec.Alts[0]
	stages := make([]core.StageReport, len(alt.Stages))
	for i := range alt.Stages {
		st := &alt.Stages[i]
		e := 1
		if i < len(extents) {
			e = extents[i]
		}
		var load float64
		if i < len(loads) {
			load = loads[i]
		}
		stages[i] = core.StageReport{
			Name: st.Name, Type: st.Type, Extent: e,
			ExecTime: exec[i], MeanExecTime: exec[i],
			Iterations: 100, Load: load,
		}
	}
	return &core.Report{
		Contexts: contexts,
		Features: platform.NewFeatures(),
		Config:   cfg,
		Root: &core.NestReport{
			Name: "ferret", Path: "ferret", Spec: spec,
			AltIndex: 0, AltName: "pipeline", Stages: stages,
		},
	}
}

// --- distribute ------------------------------------------------------------

func TestDistributeRespectsBudgetAndSEQ(t *testing.T) {
	stages := []core.StageReport{
		{Name: "a", Type: core.SEQ},
		{Name: "b", Type: core.PAR},
		{Name: "c", Type: core.PAR},
	}
	got := distribute(10, stages, []float64{5, 1, 3})
	if got[0] != 1 {
		t.Fatalf("SEQ stage extent = %d", got[0])
	}
	if got[1]+got[2] != 9 {
		t.Fatalf("PAR total = %d, want 9", got[1]+got[2])
	}
	if got[2] <= got[1] {
		t.Fatalf("heavier stage should get more: %v", got)
	}
}

func TestDistributeSmallBudget(t *testing.T) {
	stages := []core.StageReport{
		{Name: "a", Type: core.PAR},
		{Name: "b", Type: core.PAR},
	}
	got := distribute(0, stages, nil)
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("everyone gets at least 1: %v", got)
	}
}

func TestDistributeEqualWeightsWhenNil(t *testing.T) {
	stages := []core.StageReport{
		{Name: "a", Type: core.PAR},
		{Name: "b", Type: core.PAR},
	}
	got := distribute(8, stages, nil)
	if got[0] != 4 || got[1] != 4 {
		t.Fatalf("equal split expected: %v", got)
	}
}

func TestDistributeHonorsMaxDoP(t *testing.T) {
	stages := []core.StageReport{
		{Name: "a", Type: core.PAR, MaxDoP: 2},
		{Name: "b", Type: core.PAR},
	}
	got := distribute(10, stages, []float64{100, 1})
	if got[0] > 2 {
		t.Fatalf("MaxDoP violated: %v", got)
	}
}

func TestDistributeExactApportionment(t *testing.T) {
	stages := []core.StageReport{
		{Name: "a", Type: core.PAR},
		{Name: "b", Type: core.PAR},
		{Name: "c", Type: core.PAR},
	}
	got := distribute(24, stages, []float64{1, 1, 1})
	if got[0]+got[1]+got[2] != 24 {
		t.Fatalf("total = %d, want 24: %v", got[0]+got[1]+got[2], got)
	}
}

// --- alternative selection ---------------------------------------------------

func TestAltSelectionHelpers(t *testing.T) {
	spec := pipelineSpec()
	if got := seqAltIndex(spec); got != 1 {
		t.Fatalf("seqAltIndex = %d", got)
	}
	if got := parAltIndex(spec); got != 0 {
		t.Fatalf("parAltIndex = %d", got)
	}
}

// --- Proportional ------------------------------------------------------------

func TestProportionalMatchesFigure10(t *testing.T) {
	// Inner pipeline with exec times 1:6:1 on an 8-thread budget should
	// give the transform-like stage most of the workers.
	rep := pipelineReport(8, []float64{0.001, 0.006, 0.001, 0.001, 0.001, 0.001},
		[]int{1, 1, 1, 1, 1, 1}, nil)
	p := &Proportional{Threads: 8}
	cfg := p.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if cfg.Extents[1] < cfg.Extents[2] || cfg.Extents[1] < 2 {
		t.Fatalf("heaviest stage underprovisioned: %v", cfg.Extents)
	}
	if sumExtents(cfg.Extents) > 8 {
		t.Fatalf("budget exceeded: %v", cfg.Extents)
	}
	if cfg.Extents[0] != 1 || cfg.Extents[5] != 1 {
		t.Fatalf("SEQ stages must stay 1: %v", cfg.Extents)
	}
}

func TestProportionalRecursesIntoNests(t *testing.T) {
	rep := serverReport(24, 0, 0, []float64{0.001, 0.008, 0.001})
	p := &Proportional{Threads: 24}
	cfg := p.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	inner := cfg.Child("inner")
	if inner == nil {
		t.Fatal("inner config missing")
	}
	if len(inner.Extents) != 3 {
		t.Fatalf("inner extents = %v", inner.Extents)
	}
}

// --- WQT-H -------------------------------------------------------------------

func TestWQTHStartsInSeqState(t *testing.T) {
	m := &WQTH{Threads: 24, Mmax: 8, Threshold: 5, NOff: 2, NOn: 2}
	rep := serverReport(24, 10 /* heavy */, 1, []float64{0.001})
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("first call should emit the SEQ-state config")
	}
	if m.InPar() {
		t.Fatal("must start in SEQ state")
	}
	if cfg.Extents[0] != 24 {
		t.Fatalf("outer extent = %d, want 24", cfg.Extents[0])
	}
	inner := cfg.Child("inner")
	if inner.Alt != 1 {
		t.Fatalf("inner alt = %d, want fused", inner.Alt)
	}
}

func TestWQTHTransitionsWithHysteresis(t *testing.T) {
	m := &WQTH{Threads: 24, Mmax: 8, Threshold: 5, NOff: 3, NOn: 3}
	light := func() *core.Report { return serverReport(24, 1, 1, []float64{0.001}) }
	heavy := func() *core.Report { return serverReport(24, 50, 0, []float64{0.001, 0.006, 0.001}) }

	m.Reconfigure(light()) // seeds SEQ config, below=1
	for i := 0; i < 2; i++ {
		m.Reconfigure(light())
	}
	if m.InPar() {
		t.Fatal("should not flip before hysteresis expires")
	}
	cfg := m.Reconfigure(light()) // 4th consecutive light: below > 3
	if !m.InPar() {
		t.Fatal("should be in PAR after hysteresis")
	}
	if cfg == nil {
		t.Fatal("state flip must emit a config")
	}
	if cfg.Extents[0] != 3 {
		t.Fatalf("outer extent = %d, want 24/8 = 3", cfg.Extents[0])
	}
	inner := cfg.Child("inner")
	if inner.Alt != 0 {
		t.Fatalf("inner alt = %d, want pipeline", inner.Alt)
	}
	if sumExtents(inner.Extents) != 8 {
		t.Fatalf("inner total = %d, want Mmax=8", sumExtents(inner.Extents))
	}

	// Flip back under sustained heavy load.
	for i := 0; i < 3; i++ {
		if m.Reconfigure(heavy()) != nil && i < 3 {
			// mid-hysteresis emissions are allowed to be nil only
		}
	}
	cfg = m.Reconfigure(heavy())
	if m.InPar() {
		t.Fatal("should return to SEQ after sustained heavy load")
	}
	if cfg == nil || cfg.Extents[0] != 24 {
		t.Fatalf("SEQ config = %v", cfg)
	}
}

func TestWQTHNoServerShape(t *testing.T) {
	m := &WQTH{Threads: 8, Mmax: 4, Threshold: 2}
	rep := pipelineReport(8, []float64{0.001, 0.002, 0.001, 0.001, 0.001, 0.001},
		[]int{1, 1, 1, 1, 1, 1}, nil)
	if m.Reconfigure(rep) != nil {
		t.Fatal("flat pipeline has no server shape; expected nil")
	}
}

// --- WQ-Linear -----------------------------------------------------------------

func TestWQLinearExtentFormula(t *testing.T) {
	m := &WQLinear{Threads: 24, Mmax: 8, Mmin: 1, Qmax: 14}
	// k = (8-1)/14 = 0.5; extent = 8 - 0.5*WQo.
	cases := []struct {
		occ  float64
		want int
	}{
		{0, 8}, {2, 7}, {8, 4}, {14, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := m.Extent(c.occ); got != c.want {
			t.Errorf("Extent(%v) = %d, want %d", c.occ, got, c.want)
		}
	}
}

func TestWQLinearDefaults(t *testing.T) {
	m := &WQLinear{Threads: 24, Mmax: 8} // Mmin, Qmax default
	if got := m.Extent(0); got != 8 {
		t.Fatalf("Extent(0) = %d", got)
	}
	if got := m.Extent(1e9); got != 1 {
		t.Fatalf("Extent(inf) = %d", got)
	}
}

func TestWQLinearReconfigure(t *testing.T) {
	m := &WQLinear{Threads: 24, Mmax: 8, Mmin: 1, Qmax: 14}
	rep := serverReport(24, 2, 0, []float64{0.001, 0.006, 0.001})
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	// occupancy 2 -> extent 7 -> outer 24/7 = 3.
	if cfg.Extents[0] != 3 {
		t.Fatalf("outer = %d", cfg.Extents[0])
	}
	inner := cfg.Child("inner")
	if inner.Alt != 0 || sumExtents(inner.Extents) != 7 {
		t.Fatalf("inner = %+v", inner)
	}

	// Saturated queue: inner sequential, outer 24.
	rep = serverReport(24, 100, 0, []float64{0.001, 0.006, 0.001})
	cfg = m.Reconfigure(rep)
	if cfg.Extents[0] != 24 || cfg.Child("inner").Alt != 1 {
		t.Fatalf("saturated config = %v", cfg)
	}
}

// --- TB / TBF -------------------------------------------------------------------

func TestTBFBalancesByExecTime(t *testing.T) {
	m := &TBF{Threads: 24, DisableFusion: true}
	exec := []float64{0.001, 0.004, 0.004, 0.004, 0.004, 0.001}
	rep := pipelineReport(24, exec, []int{1, 1, 1, 1, 1, 1}, nil)
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if cfg.Alt != 0 {
		t.Fatalf("TB must not fuse; alt = %d", cfg.Alt)
	}
	for i := 1; i <= 4; i++ {
		if cfg.Extents[i] < 4 {
			t.Fatalf("parallel stages underprovisioned: %v", cfg.Extents)
		}
	}
	if cfg.Extents[0] != 1 || cfg.Extents[5] != 1 {
		t.Fatalf("SEQ stages must stay 1: %v", cfg.Extents)
	}
}

func TestTBFFusesOnImbalance(t *testing.T) {
	m := &TBF{Threads: 24}
	// A SEQ stage dominates: no assignment can balance the pipeline, so
	// capacity imbalance stays > 0.5 and TBF must fuse.
	exec := []float64{0.100, 0.001, 0.001, 0.001, 0.001, 0.001}
	rep := pipelineReport(24, exec, []int{1, 1, 1, 1, 1, 1}, nil)
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if cfg.Alt != 1 {
		t.Fatalf("expected fusion (alt 1), got alt %d", cfg.Alt)
	}
}

func TestTBFHoldsWithFewSamples(t *testing.T) {
	m := &TBF{Threads: 24}
	rep := pipelineReport(24, []float64{0.001, 0.004, 0.004, 0.004, 0.004, 0.001},
		[]int{1, 1, 1, 1, 1, 1}, nil)
	for i := range rep.Root.Stages {
		rep.Root.Stages[i].Iterations = 2
	}
	if m.Reconfigure(rep) != nil {
		t.Fatal("should wait for MinSamples")
	}
}

func TestTBNameAndTBFName(t *testing.T) {
	if (&TBF{}).Name() != "TBF" || (&TBF{DisableFusion: true}).Name() != "TB" {
		t.Fatal("names wrong")
	}
}

// --- FDP ------------------------------------------------------------------------

func TestFDPClimbsTowardBottleneck(t *testing.T) {
	m := &FDP{Threads: 12}
	exec := []float64{0.001, 0.008, 0.002, 0.002, 0.002, 0.001}
	extents := []int{1, 1, 1, 1, 1, 1}
	rep := pipelineReport(12, exec, extents, nil)
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if cfg.Extents[1] != 2 {
		t.Fatalf("bottleneck stage should grow first: %v", cfg.Extents)
	}
}

func TestFDPRevertsOnRegression(t *testing.T) {
	m := &FDP{Threads: 12}
	exec := []float64{0.001, 0.008, 0.002, 0.002, 0.002, 0.001}
	rep := pipelineReport(12, exec, []int{1, 1, 1, 1, 1, 1}, nil)
	cfg := m.Reconfigure(rep) // proposes [1,2,1,1,1,1]
	if cfg == nil {
		t.Fatal("no first step")
	}
	// Next report: throughput got WORSE (exec times inflated).
	worse := []float64{0.001, 0.030, 0.002, 0.002, 0.002, 0.001}
	rep2 := pipelineReport(12, worse, []int{1, 2, 1, 1, 1, 1}, nil)
	cfg2 := m.Reconfigure(rep2)
	if cfg2 == nil {
		t.Fatal("regression must revert")
	}
	if cfg2.Extents[1] != 1 {
		t.Fatalf("expected revert to extent 1: %v", cfg2.Extents)
	}
	// Stalled: the first post-revert observation seeds the stall baseline,
	// and identical conditions thereafter produce no further moves.
	rep3 := pipelineReport(12, worse, []int{1, 1, 1, 1, 1, 1}, nil)
	if m.Reconfigure(rep3) != nil {
		t.Fatal("stalled FDP should hold while seeding its baseline")
	}
	rep4 := pipelineReport(12, worse, []int{1, 1, 1, 1, 1, 1}, nil)
	if m.Reconfigure(rep4) != nil {
		t.Fatal("stalled FDP should hold under identical conditions")
	}
}

func TestFDPMovesWorkerWhenBudgetExhausted(t *testing.T) {
	// Budget of 9 fully used (1+3+2+1+1+1); stage 1 is the bottleneck and
	// stage 2 is fast and over-provisioned, so FDP moves a worker 2 -> 1.
	m := &FDP{Threads: 9}
	exec := []float64{0.001, 0.010, 0.001, 0.001, 0.001, 0.001}
	rep := pipelineReport(9, exec, []int{1, 3, 2, 1, 1, 1}, nil)
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if sumExtents(cfg.Extents) > 9 {
		t.Fatalf("budget exceeded: %v", cfg.Extents)
	}
	if cfg.Extents[1] != 4 || cfg.Extents[2] != 1 {
		t.Fatalf("expected a worker moved from stage 2 to stage 1: %v", cfg.Extents)
	}
}

// --- SEDA ------------------------------------------------------------------------

func TestSEDAGrowsLoadedStages(t *testing.T) {
	m := &SEDA{HighWater: 4, LowWater: 1}
	exec := []float64{0.001, 0.002, 0.002, 0.002, 0.002, 0.001}
	loads := []float64{0, 10, 0.5, 10, 0, 0}
	rep := pipelineReport(24, exec, []int{1, 2, 2, 2, 2, 1}, loads)
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if cfg.Extents[1] != 3 || cfg.Extents[3] != 3 {
		t.Fatalf("loaded stages should grow: %v", cfg.Extents)
	}
	if cfg.Extents[2] != 1 {
		t.Fatalf("idle stage should shrink: %v", cfg.Extents)
	}
	// SEDA is uncoordinated: total may exceed any global budget.
}

func TestSEDANoChangeReturnsNil(t *testing.T) {
	m := &SEDA{HighWater: 4, LowWater: 1}
	exec := []float64{0.001, 0.002, 0.002, 0.002, 0.002, 0.001}
	loads := []float64{2, 2, 2, 2, 2, 2}
	rep := pipelineReport(24, exec, []int{1, 2, 2, 2, 2, 1}, loads)
	if m.Reconfigure(rep) != nil {
		t.Fatal("in-band loads should change nothing")
	}
}

// TestSEDALowWaterDefaultsToOne pins the documented default: with LowWater
// unset, a stage whose load sits below 1 gives a worker back.
func TestSEDALowWaterDefaultsToOne(t *testing.T) {
	m := &SEDA{HighWater: 4}
	exec := []float64{0.001, 0.002, 0.002, 0.002, 0.002, 0.001}
	loads := []float64{2, 0.2, 2, 2, 2, 2}
	rep := pipelineReport(24, exec, []int{1, 3, 2, 2, 2, 1}, loads)
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("idle stage kept its workers: LowWater did not default to 1")
	}
	if cfg.Extents[1] != 2 {
		t.Fatalf("idle stage should shrink from 3 to 2: %v", cfg.Extents)
	}
}

// --- TPC ------------------------------------------------------------------------

func TestTPCRampsUntilPowerBinds(t *testing.T) {
	m := &TPC{Threads: 24, Budget: 720}
	feat := platform.NewFeatures()
	power := 620.0
	feat.Register(platform.FeatureSystemPower, func() float64 { return power })

	exec := []float64{0.001, 0.004, 0.004, 0.004, 0.004, 0.001}
	extents := []int{1, 1, 1, 1, 1, 1}
	for step := 0; step < 6; step++ {
		rep := pipelineReport(24, exec, extents, nil)
		rep.Features = feat
		cfg := m.Reconfigure(rep)
		if cfg == nil {
			break
		}
		copy(extents, cfg.Extents)
		power += 8 // each worker adds draw
	}
	if sumExtents(extents) <= 6 {
		t.Fatalf("TPC never ramped: %v", extents)
	}
	if m.Phase() != "ramp" && m.Phase() != "explore" {
		t.Fatalf("phase = %s", m.Phase())
	}
}

func TestTPCRetreatsOnOvershoot(t *testing.T) {
	m := &TPC{Threads: 24, Budget: 700}
	feat := platform.NewFeatures()
	feat.Register(platform.FeatureSystemPower, func() float64 { return 750 }) // over budget

	exec := []float64{0.001, 0.004, 0.004, 0.004, 0.004, 0.001}
	extents := []int{1, 4, 4, 4, 4, 1}
	rep := pipelineReport(24, exec, extents, nil)
	rep.Features = feat
	cfg := m.Reconfigure(rep)
	if cfg == nil {
		t.Fatal("overshoot must trigger a retreat")
	}
	if sumExtents(cfg.Extents) >= sumExtents(extents) {
		t.Fatalf("retreat did not shrink: %v -> %v", extents, cfg.Extents)
	}
}

func TestTPCStabilizes(t *testing.T) {
	m := &TPC{Threads: 8, Budget: 0 /* unconstrained */, ExploreSteps: 2}
	exec := []float64{0.001, 0.004, 0.004, 0.004, 0.004, 0.001}
	extents := []int{1, 1, 1, 1, 1, 1}
	for step := 0; step < 40 && m.Phase() != "stable"; step++ {
		rep := pipelineReport(8, exec, extents, nil)
		cfg := m.Reconfigure(rep)
		if cfg != nil {
			copy(extents, cfg.Extents)
		}
	}
	if m.Phase() != "stable" {
		t.Fatalf("TPC never stabilized, phase = %s", m.Phase())
	}
	if sumExtents(extents) > 8 {
		t.Fatalf("budget exceeded: %v", extents)
	}
}

func TestTPCWithoutPowerFeature(t *testing.T) {
	m := &TPC{Threads: 8}
	exec := []float64{0.001, 0.004, 0.004, 0.004, 0.004, 0.001}
	rep := pipelineReport(8, exec, []int{1, 1, 1, 1, 1, 1}, nil)
	if cfg := m.Reconfigure(rep); cfg == nil {
		t.Fatal("no power feature should still allow ramping")
	}
}
