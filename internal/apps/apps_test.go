package apps

import (
	"testing"
	"testing/quick"
	"time"

	"dope/internal/core"
)

// smallTranscode returns fast-running parameters for tests.
func smallTranscode() TranscodeParams {
	return TranscodeParams{Frames: 6, UnitsPerFrame: 200, Sigma: 0.04}
}

// runServerApp drives n requests through an app spec under a static config
// and waits for completion.
func runServerApp(t *testing.T, s *Server, spec *core.NestSpec, cfg *core.Config, n int, contexts int) *core.Exec {
	t.Helper()
	e, err := core.New(spec, core.WithContexts(contexts), core.WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Submit(1.0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBurnDeterministic(t *testing.T) {
	if Burn(1000) != Burn(1000) {
		t.Fatal("Burn must be deterministic")
	}
	if Burn(0) == 0 {
		t.Fatal("zero-unit burn should still return the seed state")
	}
}

func TestCalibratePositive(t *testing.T) {
	if Calibrate() <= 0 {
		t.Fatal("calibration must be positive")
	}
}

func TestSyncOverheadFactor(t *testing.T) {
	if SyncOverheadFactor(1, 0.04) != 1 {
		t.Fatal("extent 1 has no overhead")
	}
	if SyncOverheadFactor(8, 0.04) != 1.28 {
		t.Fatalf("factor(8, .04) = %v", SyncOverheadFactor(8, 0.04))
	}
	// The paper's transcode calibration: s(8) = 8/1.28 ≈ 6.25×.
	s8 := 8 / SyncOverheadFactor(8, 0.04)
	if s8 < 6.0 || s8 > 6.5 {
		t.Fatalf("speedup(8) = %v, want ≈6.3", s8)
	}
	if InflatedUnits(100, 2, 0.5) != 150 {
		t.Fatalf("inflated = %d", InflatedUnits(100, 2, 0.5))
	}
}

func TestTranscodeCompletesPipeline(t *testing.T) {
	s := NewServer(nil)
	spec := NewTranscode(s, smallTranscode())
	cfg := &core.Config{Alt: 0, Extents: []int{2}}
	cfg.SetChild("video", &core.Config{Alt: 0, Extents: []int{1, 3, 1}})
	runServerApp(t, s, spec, cfg, 8, 12)
	if got := s.Resp.Count(); got != 8 {
		t.Fatalf("completed = %d, want 8", got)
	}
	if s.Resp.MeanExec() <= 0 {
		t.Fatal("exec time not recorded")
	}
}

func TestTranscodeCompletesFused(t *testing.T) {
	s := NewServer(nil)
	spec := NewTranscode(s, smallTranscode())
	cfg := &core.Config{Alt: 0, Extents: []int{4}}
	cfg.SetChild("video", &core.Config{Alt: 1, Extents: []int{1}})
	runServerApp(t, s, spec, cfg, 8, 8)
	if got := s.Resp.Count(); got != 8 {
		t.Fatalf("completed = %d, want 8", got)
	}
}

func TestTranscodeParallelIsFasterPerItem(t *testing.T) {
	// Inner parallelism must reduce per-request execution time (Fig 2a).
	params := TranscodeParams{Frames: 12, UnitsPerFrame: 3000, Sigma: 0.04}

	sSeq := NewServer(nil)
	cfgSeq := &core.Config{Alt: 0, Extents: []int{1}}
	cfgSeq.SetChild("video", &core.Config{Alt: 1, Extents: []int{1}})
	runServerApp(t, sSeq, NewTranscode(sSeq, params), cfgSeq, 4, 8)

	sPar := NewServer(nil)
	cfgPar := &core.Config{Alt: 0, Extents: []int{1}}
	cfgPar.SetChild("video", &core.Config{Alt: 0, Extents: []int{1, 6, 1}})
	runServerApp(t, sPar, NewTranscode(sPar, params), cfgPar, 4, 8)

	seq := sSeq.Resp.MeanExec()
	par := sPar.Resp.MeanExec()
	if par >= seq {
		t.Fatalf("parallel exec %.4fs not faster than sequential %.4fs", par, seq)
	}
}

func TestSwaptionsCompletes(t *testing.T) {
	s := NewServer(nil)
	spec := NewSwaptions(s, SwaptionsParams{Chunks: 8, UnitsPerChunk: 200})
	cfg := &core.Config{Alt: 0, Extents: []int{2}}
	cfg.SetChild("price", &core.Config{Alt: 0, Extents: []int{3}})
	runServerApp(t, s, spec, cfg, 6, 8)
	if got := s.Resp.Count(); got != 6 {
		t.Fatalf("completed = %d", got)
	}
}

func TestSwaptionsSequentialAlt(t *testing.T) {
	s := NewServer(nil)
	spec := NewSwaptions(s, SwaptionsParams{Chunks: 8, UnitsPerChunk: 200})
	cfg := &core.Config{Alt: 0, Extents: []int{3}}
	cfg.SetChild("price", &core.Config{Alt: 1, Extents: []int{1}})
	runServerApp(t, s, spec, cfg, 6, 8)
	if got := s.Resp.Count(); got != 6 {
		t.Fatalf("completed = %d", got)
	}
}

func TestCompressCompletesBothAlts(t *testing.T) {
	for alt := 0; alt <= 1; alt++ {
		s := NewServer(nil)
		spec := NewCompress(s, CompressParams{Blocks: 6, UnitsPerBlock: 200})
		cfg := &core.Config{Alt: 0, Extents: []int{2}}
		extents := []int{1, 4, 1}
		if alt == 1 {
			extents = []int{1}
		}
		cfg.SetChild("file", &core.Config{Alt: alt, Extents: extents})
		runServerApp(t, s, spec, cfg, 5, 12)
		if got := s.Resp.Count(); got != 5 {
			t.Fatalf("alt %d: completed = %d", alt, got)
		}
	}
}

func TestCompressMinDoPDeclared(t *testing.T) {
	s := NewServer(nil)
	spec := NewCompress(s, CompressParams{})
	inner := spec.Alts[0].Stages[0].Nest
	if inner == nil {
		t.Fatal("compress must nest the file loop")
	}
	var compressStage *core.StageSpec
	for i := range inner.Alts[0].Stages {
		if inner.Alts[0].Stages[i].Name == "compress" {
			compressStage = &inner.Alts[0].Stages[i]
		}
	}
	if compressStage == nil || compressStage.MinDoP != 4 {
		t.Fatalf("compress stage MinDoP = %+v, want 4 (Table 4)", compressStage)
	}
	s.Close()
}

func TestOilifyCompletes(t *testing.T) {
	s := NewServer(nil)
	spec := NewOilify(s, OilifyParams{Rows: 6, UnitsPerRow: 200})
	cfg := &core.Config{Alt: 0, Extents: []int{2}}
	cfg.SetChild("image", &core.Config{Alt: 0, Extents: []int{2}})
	runServerApp(t, s, spec, cfg, 6, 8)
	if got := s.Resp.Count(); got != 6 {
		t.Fatalf("completed = %d", got)
	}
}

func TestFerretPipelineCompletes(t *testing.T) {
	s := NewServer(nil)
	spec := NewFerret(s, FerretParams{UnitsBase: 100})
	cfg := &core.Config{Alt: 0, Extents: []int{1, 2, 2, 2, 2, 1}}
	runServerApp(t, s, spec, cfg, 20, 12)
	if got := s.Resp.Count(); got != 20 {
		t.Fatalf("completed = %d, want 20", got)
	}
	if s.Meter.Total() != 20 {
		t.Fatalf("meter total = %d", s.Meter.Total())
	}
}

func TestFerretFusedCompletes(t *testing.T) {
	s := NewServer(nil)
	spec := NewFerret(s, FerretParams{UnitsBase: 100})
	cfg := &core.Config{Alt: 1, Extents: []int{6}}
	runServerApp(t, s, spec, cfg, 20, 12)
	if got := s.Resp.Count(); got != 20 {
		t.Fatalf("completed = %d", got)
	}
}

func TestFerretSurvivesReconfiguration(t *testing.T) {
	s := NewServer(nil)
	spec := NewFerret(s, FerretParams{UnitsBase: 150})
	cfg := &core.Config{Alt: 0, Extents: []int{1, 1, 1, 1, 1, 1}}
	e, err := core.New(spec, core.WithContexts(12), core.WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s.Submit(1.0)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Rebalance the pipeline mid-run: forces a root suspension with queries
	// in flight in the intermediate queues.
	e.SetConfig(&core.Config{Alt: 0, Extents: []int{1, 2, 2, 3, 3, 1}})
	for i := 0; i < 30; i++ {
		s.Submit(1.0)
	}
	s.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := s.Resp.Count(); got != 60 {
		t.Fatalf("completed = %d, want 60 (no queries lost in reconfiguration)", got)
	}
}

func TestFerretFusionSwitchDrainsInFlight(t *testing.T) {
	s := NewServer(nil)
	spec := NewFerret(s, FerretParams{UnitsBase: 150})
	cfg := &core.Config{Alt: 0, Extents: []int{1, 1, 1, 1, 1, 1}}
	e, err := core.New(spec, core.WithContexts(8), core.WithInitialConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		s.Submit(1.0)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Switch to the fused alternative with items in flight.
	e.SetConfig(&core.Config{Alt: 1, Extents: []int{4}})
	for i := 0; i < 25; i++ {
		s.Submit(1.0)
	}
	s.Close()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := s.Resp.Count(); got != 50 {
		t.Fatalf("completed = %d, want 50 (fusion switch must drain in-flight queries)", got)
	}
}

func TestDedupPipelineCompletes(t *testing.T) {
	s := NewServer(nil)
	spec := NewDedup(s, DedupParams{ChunksPerItem: 8, UnitsPerChunk: 150})
	cfg := &core.Config{Alt: 0, Extents: []int{1, 2, 2, 1}}
	runServerApp(t, s, spec, cfg, 15, 12)
	if got := s.Resp.Count(); got != 15 {
		t.Fatalf("completed = %d", got)
	}
}

func TestDedupFusedCompletes(t *testing.T) {
	s := NewServer(nil)
	spec := NewDedup(s, DedupParams{ChunksPerItem: 8, UnitsPerChunk: 150})
	cfg := &core.Config{Alt: 1, Extents: []int{4}}
	runServerApp(t, s, spec, cfg, 15, 8)
	if got := s.Resp.Count(); got != 15 {
		t.Fatalf("completed = %d", got)
	}
}

func TestDedupDuplicatesShareHashes(t *testing.T) {
	// chunkSeed must produce real duplicates across requests.
	seen := map[uint64]int{}
	for req := 1; req <= 10; req++ {
		for i := 0; i < 9; i++ {
			seen[chunkSeed(req, i, 3)]++
		}
	}
	dups := 0
	for _, n := range seen {
		if n > 1 {
			dups += n
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate chunk content generated")
	}
	// And hashing is deterministic on content.
	if hashChunk(42, 4096) != hashChunk(42, 4096) {
		t.Fatal("hashChunk not deterministic")
	}
	if hashChunk(42, 4096) == hashChunk(43, 4096) {
		t.Fatal("distinct seeds should hash differently")
	}
}

func TestServerAccounting(t *testing.T) {
	s := NewServer(nil)
	s.Submit(1.0)
	s.Submit(2.0)
	if s.subs != 2 || s.Work.Len() != 2 {
		t.Fatalf("submitted=%d len=%d", s.subs, s.Work.Len())
	}
	r, err := s.Work.Dequeue()
	if err != nil {
		t.Fatal(err)
	}
	start := s.Clock().Now()
	s.Complete(r, start)
	if s.Resp.Count() != 1 || s.Meter.Total() != 1 {
		t.Fatal("completion not recorded")
	}
}

func TestReqFromRejectsBadItems(t *testing.T) {
	if _, err := reqFrom(nil); err == nil {
		t.Fatal("nil item should error")
	}
	if _, err := reqFrom("nope"); err == nil {
		t.Fatal("wrong type should error")
	}
	if _, err := reqFrom(&Request{}); err != nil {
		t.Fatal(err)
	}
}

func TestInflatedUnitsMonotoneProperty(t *testing.T) {
	f := func(unitsRaw uint16, sigmaRaw uint8) bool {
		units := int(unitsRaw)
		sigma := float64(sigmaRaw%50) / 100
		prev := -1
		for e := 1; e <= 32; e *= 2 {
			v := InflatedUnits(units, e, sigma)
			if v < prev || v < units*boolToInt(units >= 0) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestOuterLoopSuspensionLosesNoRequests(t *testing.T) {
	// The canonical two-level server shape must conserve requests across a
	// root reconfiguration for every server app.
	builders := map[string]func(*Server) *core.NestSpec{
		"x264":      func(s *Server) *core.NestSpec { return NewTranscode(s, TranscodeParams{Frames: 4, UnitsPerFrame: 150}) },
		"swaptions": func(s *Server) *core.NestSpec { return NewSwaptions(s, SwaptionsParams{Chunks: 4, UnitsPerChunk: 150}) },
		"bzip":      func(s *Server) *core.NestSpec { return NewCompress(s, CompressParams{Blocks: 4, UnitsPerBlock: 150}) },
		"gimp":      func(s *Server) *core.NestSpec { return NewOilify(s, OilifyParams{Rows: 4, UnitsPerRow: 150}) },
	}
	for name, build := range builders {
		s := NewServer(nil)
		spec := build(s)
		cfg := core.DefaultConfig(spec)
		cfg.Extents[0] = 2
		e, err := core.New(spec, core.WithContexts(8), core.WithInitialConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			s.Submit(1.0)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		nc := e.CurrentConfig()
		nc.Extents[0] = 5
		e.SetConfig(nc)
		for i := 0; i < 12; i++ {
			s.Submit(1.0)
		}
		s.Close()
		if err := e.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.Resp.Count(); got != 24 {
			t.Fatalf("%s: completed %d of 24 across reconfiguration", name, got)
		}
	}
}

func TestDedupDuplicateSkippingSavesWork(t *testing.T) {
	// With DupPeriod=1 every chunk shares one of 4 hot contents, so all
	// compression after the first few unique chunks is skipped. The saving is
	// read off the executive's own measurement of the compress stage — the
	// time its workers spent between Begin and End — not off the run's wall
	// clock, which on a loaded 2-CPU host says more about the scheduler.
	compressSeconds := func(dupPeriod int) float64 {
		s := NewServer(nil)
		spec := NewDedup(s, DedupParams{
			ChunksPerItem: 8, UnitsPerChunk: 3000, DupPeriod: dupPeriod,
		})
		cfg := &core.Config{Alt: 0, Extents: []int{1, 2, 2, 1}}
		e, err := core.New(spec, core.WithContexts(8), core.WithInitialConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		const n = 12
		for i := 0; i < n; i++ {
			s.Submit(1.0)
		}
		s.Close()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := s.Resp.Count(); got != n {
			t.Fatalf("completed = %d", got)
		}
		st := e.Report().Root.Stage("compress")
		if st.Iterations != n*8 {
			t.Fatalf("compress saw %d chunks, want %d", st.Iterations, n*8)
		}
		return st.MeanExecTime * float64(st.Iterations)
	}
	mostlyUnique := compressSeconds(1000000) // DupPeriod so large only i=0 chunks repeat
	allHot := compressSeconds(1)
	// 4 of 96 chunks are compressed in the hot run against 85 of 96; a
	// quarter leaves room for any amount of per-section overhead.
	if allHot >= 0.25*mostlyUnique {
		t.Fatalf("dedup hits should skip compression: hot=%.4fs unique=%.4fs in the compress stage", allHot, mostlyUnique)
	}
}
