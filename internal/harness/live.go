package harness

import (
	"fmt"
	"time"

	"dope/internal/apps"
	"dope/internal/core"
	"dope/internal/mechanism"
	"dope/internal/platform"
	"dope/internal/power"
	"dope/internal/workload"
)

// The live experiments run the actual DoPE executive (goroutines, queues,
// suspension protocol) over the synthetic applications, at a scale that
// finishes in seconds. Work is virtual (see apps.Work): a task
// occupies one of the 24 simulated hardware contexts for its work's
// duration, so context-gated speedups are observable on any host.

// liveContexts is the platform size for live runs, matching the paper's
// machine.
const liveContexts = 24

// LiveTranscode drives the transcode server on the real runtime across
// three load levels under WQ-Linear and reports response times against the
// sequential-inner static.
func LiveTranscode() (*Table, error) {
	t := &Table{
		ID:     "live-transcode",
		Title:  "REAL RUNTIME: x264 server, WQ-Linear vs static seq-inner (reduced scale)",
		Header: []string{"load", "static ms", "WQ-Linear ms", "reconfigs"},
		Notes: []string{
			"live validation of the fig11 mechanism path: light load favors inner parallelism, heavy load favors sequential",
		},
	}
	// Work units sized so virtual-work wakeup latency (~1 ms on small
	// hosts) stays small relative to stage times.
	params := apps.TranscodeParams{Frames: 8, UnitsPerFrame: 2000}
	const nReq = 40
	// Calibrate max throughput empirically, the paper's N/T way: a batch
	// of sequential-inner transcodes on all contexts.
	maxTp, err := calibrateTranscode(params)
	if err != nil {
		return nil, err
	}

	for _, lf := range []float64{0.3, 0.9} {
		static, _, err := runLiveServer(func(s *apps.Server) *core.NestSpec {
			return apps.NewTranscode(s, params)
		}, nil, lf, maxTp, nReq, "video", 1)
		if err != nil {
			return nil, err
		}
		mech := &mechanism.WQLinear{Threads: liveContexts, Mmax: 8, Mmin: 1, Qmax: 10}
		dyn, reconfigs, err := runLiveServer(func(s *apps.Server) *core.NestSpec {
			return apps.NewTranscode(s, params)
		}, mech, lf, maxTp, nReq, "video", 8)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			f1(lf), ms(static), ms(dyn), fmt.Sprint(reconfigs),
		})
	}
	return t, nil
}

// calibrateTranscode measures N/T with the static throughput-optimal
// configuration (fused sequential transcodes on every context).
func calibrateTranscode(params apps.TranscodeParams) (float64, error) {
	const n = 3 * liveContexts
	s := apps.NewServer(nil)
	spec := apps.NewTranscode(s, params)
	cfg := core.DefaultConfig(spec)
	cfg.Extents[0] = liveContexts
	cfg.Child("video").Alt = 1
	e, err := core.New(spec, core.WithContexts(liveContexts), core.WithInitialConfig(cfg))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		s.Submit(1.0)
	}
	s.Close()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return workload.MaxThroughput(n, time.Since(start)), nil
}

// runLiveServer runs one live server experiment and returns the mean
// response time in seconds and the number of reconfigurations.
func runLiveServer(build func(*apps.Server) *core.NestSpec, mech core.Mechanism,
	lf, maxTp float64, nReq int, innerName string, innerM int) (float64, uint64, error) {
	s := apps.NewServer(nil)
	spec := build(s)
	cfg := core.DefaultConfig(spec)
	if innerM <= 1 {
		cfg.Extents[0] = liveContexts
		if c := cfg.Child(innerName); c != nil {
			c.Alt = 1 // fused/sequential alternative
			c.Extents = []int{1}
		}
	} else {
		cfg.Extents[0] = maxInt(1, liveContexts/innerM)
		if c := cfg.Child(innerName); c != nil {
			c.Alt = 0
			// Let Normalize shape the extents; give the PAR stage the bulk.
			c.Extents = []int{1, innerM - 2, 1}
		}
	}
	opts := []core.Option{
		core.WithContexts(liveContexts),
		core.WithInitialConfig(cfg),
		core.WithControlInterval(5 * time.Millisecond),
	}
	if mech != nil {
		opts = append(opts, core.WithMechanism(mech))
	}
	e, err := core.New(spec, opts...)
	if err != nil {
		return 0, 0, err
	}
	if err := e.Start(); err != nil {
		return 0, 0, err
	}
	arr := workload.NewArrivals(workload.LoadFactor(lf).RateFor(maxTp), 23)
	for i := 0; i < nReq; i++ {
		time.Sleep(arr.Next())
		if err := s.Submit(1.0); err != nil {
			break
		}
	}
	s.Close()
	if err := e.Wait(); err != nil {
		return 0, 0, err
	}
	return s.Resp.MeanResponse(), e.Reconfigurations(), nil
}

// LiveFerret runs the ferret batch pipeline on the real runtime under TBF
// and reports throughput against the even static.
func LiveFerret() (*Table, error) {
	t := &Table{
		ID:     "live-ferret",
		Title:  "REAL RUNTIME: ferret batch, static even vs DoPE-TBF (reduced scale)",
		Header: []string{"approach", "queries/s", "final config"},
		Notes: []string{
			"live validation of the table5 path: TBF rebalances (or fuses) the skewed pipeline",
		},
	}
	const nReq = 200
	params := apps.FerretParams{UnitsBase: 120}

	runOne := func(mech core.Mechanism, extents []int) (float64, string, error) {
		s := apps.NewServer(nil)
		spec := apps.NewFerret(s, params)
		cfg := &core.Config{Alt: 0, Extents: extents}
		opts := []core.Option{
			core.WithContexts(liveContexts),
			core.WithInitialConfig(cfg),
			core.WithControlInterval(10 * time.Millisecond),
		}
		if mech != nil {
			opts = append(opts, core.WithMechanism(mech))
		}
		e, err := core.New(spec, opts...)
		if err != nil {
			return 0, "", err
		}
		for i := 0; i < nReq; i++ {
			s.Submit(1.0)
		}
		s.Close()
		if err := e.Run(); err != nil {
			return 0, "", err
		}
		return s.Meter.Overall(), e.CurrentConfig().String(), nil
	}

	even := []int{1, 5, 5, 5, 6, 1}
	tput, _, err := runOne(nil, even)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"static-even", f1(tput), fmt.Sprint(even)})

	tputTBF, final, err := runOne(&mechanism.TBF{Threads: liveContexts}, []int{1, 1, 1, 1, 1, 1})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"DoPE-TBF", f1(tputTBF), final})
	if tput > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("TBF/static = %.2fx", tputTBF/tput))
	}
	return t, nil
}

// LivePower runs ferret under TPC with a watt budget on the real runtime,
// with the power model + rate-limited PDU registered as a platform feature.
func LivePower() (*Table, error) {
	const nReq = 200
	budget := 0.9 * power.DefaultPeakWatts
	s := apps.NewServer(nil)
	spec := apps.NewFerret(s, apps.FerretParams{UnitsBase: 120})
	e, err := core.New(spec,
		core.WithContexts(liveContexts),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, 1, 1, 1, 1, 1}}),
		core.WithControlInterval(20*time.Millisecond),
		core.WithMechanism(&mechanism.TPC{Threads: liveContexts, Budget: budget}),
	)
	if err != nil {
		return nil, err
	}
	// Register the power substrate: linear model over busy contexts read
	// through a fast PDU (the live run lasts ~seconds; the paper's
	// 13-samples/minute PDU would never refresh).
	model := power.NewDefaultModel(liveContexts)
	pdu := power.NewPDU(func() float64 {
		return model.Watts(e.Contexts().Busy())
	}, 50*time.Millisecond, e.Clock())
	e.Features().Register(platform.FeatureSystemPower, pdu.FeatureCB())

	if err := e.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < nReq; i++ {
		s.Submit(1.0)
	}
	s.Close()
	if err := e.Wait(); err != nil {
		return nil, err
	}
	finalPower, _ := e.Features().Value(platform.FeatureSystemPower)
	t := &Table{
		ID:     "live-power",
		Title:  fmt.Sprintf("REAL RUNTIME: ferret under TPC, budget %.0f W (reduced scale)", budget),
		Header: []string{"metric", "value"},
		Notes: []string{
			"live validation of the fig14 path: TPC ramps DoP and holds the watt budget",
		},
	}
	t.Rows = append(t.Rows, []string{"queries/s", f1(s.Meter.Overall())})
	t.Rows = append(t.Rows, []string{"final power (W)", f1(finalPower)})
	t.Rows = append(t.Rows, []string{"budget (W)", f1(budget)})
	t.Rows = append(t.Rows, []string{"reconfigurations", fmt.Sprint(e.Reconfigurations())})
	t.Rows = append(t.Rows, []string{"final config", e.CurrentConfig().String()})
	return t, nil
}

// LiveGoals reproduces the paper's headline demonstration for ferret
// (§8.2): "three different goals involving response time, throughput, and
// power were independently specified. DoPE automatically determined a
// stable and well performing parallelism configuration operating point in
// all cases." One live system serves three phases of queries while the
// administrator switches the goal between them at run time.
func LiveGoals() (*Table, error) {
	const perPhase = 150
	budget := 0.9 * power.DefaultPeakWatts
	s := apps.NewServer(nil)
	spec := apps.NewFerret(s, apps.FerretParams{UnitsBase: 120})
	e, err := core.New(spec,
		core.WithContexts(liveContexts),
		core.WithInitialConfig(&core.Config{Alt: 0, Extents: []int{1, 2, 2, 2, 2, 1}}),
		core.WithControlInterval(10*time.Millisecond),
	)
	if err != nil {
		return nil, err
	}
	model := power.NewDefaultModel(liveContexts)
	pdu := power.NewPDU(func() float64 {
		return model.Watts(e.Contexts().Busy())
	}, 50*time.Millisecond, e.Clock())
	e.Features().Register(platform.FeatureSystemPower, pdu.FeatureCB())
	if err := e.Start(); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "live-goals",
		Title:  "REAL RUNTIME: one ferret instance, three goals switched at run time (§8.2)",
		Header: []string{"phase", "goal", "queries/s", "mean resp ms", "power W", "config at phase end"},
		Notes: []string{
			"paper: DoPE determined a stable, well-performing operating point for every goal on the same application",
		},
	}
	phases := []struct {
		name string
		mech core.Mechanism
	}{
		{"min-response", &mechanism.LoadProportional{Threads: liveContexts}},
		{"max-throughput", &mechanism.TBF{Threads: liveContexts}},
		{"max-throughput@720W", &mechanism.TPC{Threads: liveContexts, Budget: budget}},
	}
	for i, ph := range phases {
		e.SetMechanism(ph.mech)
		start := e.Clock().Now()
		startN := s.Meter.Total()
		for q := 0; q < perPhase; q++ {
			s.Submit(1.0)
			time.Sleep(800 * time.Microsecond) // moderate open-loop feed
		}
		// Let the phase drain before measuring it.
		for s.Meter.Total() < startN+perPhase {
			time.Sleep(2 * time.Millisecond)
		}
		elapsed := e.Clock().Since(start).Seconds()
		pw, _ := e.Features().Value(platform.FeatureSystemPower)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1), ph.name,
			f1(float64(perPhase) / elapsed),
			ms(s.Resp.MeanResponse()),
			f1(pw),
			e.CurrentConfig().String(),
		})
	}
	s.Close()
	if err := e.Wait(); err != nil {
		return nil, err
	}
	return t, nil
}
