package sim

import (
	"math"
	"time"

	"dope/internal/core"
	"dope/internal/platform"
	"dope/internal/power"
	"dope/internal/stats"
	"dope/internal/workload"
)

// PipelineConfig parameterizes one pipeline-simulation run (ferret/dedup).
type PipelineConfig struct {
	// Contexts is the platform size (default 24).
	Contexts int
	// Tasks is how many items to push through (default 500).
	Tasks int
	// LoadFactor > 0 runs the open-loop server mode with Poisson arrivals
	// at that fraction of max throughput; 0 runs batch mode (all items
	// enqueued at time zero), which is how the paper measures throughput.
	LoadFactor float64
	// Seed drives the arrival stream.
	Seed int64
	// Extents is the static/initial per-stage extent vector for
	// alternative 0 (defaults to all ones).
	Extents []int
	// Alt selects the initial alternative (0 pipeline, 1 fused).
	Alt int
	// Mechanism adapts the configuration each ControlEvery seconds.
	Mechanism core.Mechanism
	// ControlEvery is the control period in seconds (default 0.05).
	ControlEvery float64
	// Oversubscribed enables the Pthreads-OS baseline: every stage gets a
	// Contexts-sized pool and the OS time-slices, with the model's
	// OSPenalty slowdown when demand exceeds supply.
	Oversubscribed bool
	// Placement maps stages onto the machine topology (§1's locality
	// decision); PlaceNone folds placement into the base HopTime.
	Placement Placement
	// Topology describes the socket structure when Placement is used
	// (defaults to the 4×6 evaluation machine).
	Topology platform.Topology
	// PowerBudget > 0 registers the power model + PDU as the SystemPower
	// feature for TPC.
	PowerBudget float64
	// PDUPeriod is the PDU sampling period in simulated seconds; 0 uses
	// the paper's AP7892 limit (13 samples/minute). The simulator's
	// timescale is compressed relative to the paper's testbed, so
	// experiments typically scale this down proportionally to preserve the
	// sampling-lag-vs-control-period ratio.
	PDUPeriod float64
	// SampleEvery > 0 records (time, throughput, power, totalExtent) series
	// points at that period, for the Figure 13/14 traces.
	SampleEvery float64
	// ResizeCost is the simulated seconds service is frozen after an
	// extent-only reconfiguration — the real executive's in-place
	// worker-group resize, which costs roughly a slot spawn/retire. Default
	// 0 (free).
	ResizeCost float64
	// DrainCost is the simulated seconds service stays frozen after an
	// alternative switch finishes draining, modelling the teardown/respawn
	// of every stage that the suspend→drain→respawn protocol pays on top of
	// the drain barrier itself. Default 0.
	DrainCost float64
}

func (c *PipelineConfig) defaults(nStages int) {
	if c.Contexts <= 0 {
		c.Contexts = 24
	}
	if c.Tasks <= 0 {
		c.Tasks = workload.CalibrationTasks
	}
	if c.ControlEvery <= 0 {
		c.ControlEvery = 0.05
	}
	if len(c.Extents) == 0 {
		c.Extents = make([]int, nStages)
		for i := range c.Extents {
			c.Extents[i] = 1
		}
	}
}

// SamplePoint is one record of the Figure 13/14 time traces.
type SamplePoint struct {
	// Time is simulated seconds since start.
	Time float64
	// Throughput is the completion rate over the last sample window.
	Throughput float64
	// Power is the PDU reading in watts (0 when no power model).
	Power float64
	// TotalExtent is the summed DoP extent of the active alternative.
	TotalExtent int
}

// PipelineResult is the outcome of one pipeline run.
type PipelineResult struct {
	// Throughput is items/second over the whole run.
	Throughput float64
	// SteadyThroughput is items/second over the second half of the run,
	// excluding an adaptive mechanism's search transient (the paper
	// reports stabilized throughput; Figure 13 shows the transient
	// separately).
	SteadyThroughput float64
	// MeanResponse and P95Response are per-item seconds (server mode).
	MeanResponse float64
	P95Response  float64
	// Reconfigurations counts applied configuration changes; Resizes the
	// subset realized as in-place extent changes and Drains the subset that
	// paid the full drain barrier (alternative switches).
	Reconfigurations int
	Resizes          int
	Drains           int
	// FinalExtents is the extent vector at completion; FinalAlt the
	// alternative.
	FinalExtents []int
	FinalAlt     int
	// Samples is the recorded time series (empty unless SampleEvery set).
	Samples []SamplePoint
	// MeanPower averages the instantaneous model power over completions.
	MeanPower float64
	// EnergyJ is the integrated system energy over the run (0 when no
	// power model is registered).
	EnergyJ float64
}

// pipeSim is the stage-level pipeline DES.
type pipeSim struct {
	cfg    PipelineConfig
	model  *PipelineModel
	agenda *agenda
	now    float64

	queues  [][]float64 // arrival-at-queue times per stage in-queue; queues[0] is the work queue
	itemAt  [][]float64 // original arrival times, parallel to queues
	busy    []int
	extents []int
	hopMult []float64 // per-stage forwarding multiplier under the placement
	alt     int
	// pending holds a requested alternative switch; it is applied only
	// after all in-flight services drain, mirroring the real executive's
	// suspend → drain → reconfigure protocol.
	pending *pendingSwitch

	arrivals  *workload.Arrivals
	arrived   int
	completed int
	reconfs   int
	resizes   int
	drains    int
	// frozenUntil blocks new service starts until the given time: the
	// ResizeCost/DrainCost window after a reconfiguration. Completions
	// already in flight still land during the freeze.
	frozenUntil float64

	resp    stats.Welford
	respAll []float64
	lastAt  float64
	halfAt  float64   // completion time of the run's midpoint item
	stashed []float64 // original arrival stamps addressed by event item id

	clock     *platform.VirtualClock
	features  *platform.Features
	pmodel    *power.Model
	pdu       *power.PDU
	powerSum  float64
	powerObs  int
	energyJ   float64
	energyAt  float64
	samples   []SamplePoint
	lastSampT float64
	lastSampN int
}

// pendingSwitch is a deferred alternative change.
type pendingSwitch struct {
	alt     int
	extents []int
}

// nStages returns the stage count of the active alternative.
func (s *pipeSim) nStages() int {
	if s.alt == 1 {
		return 1
	}
	return len(s.model.StageTimes)
}

// RunPipeline simulates one pipeline run.
func RunPipeline(model *PipelineModel, cfg PipelineConfig) PipelineResult {
	cfg.defaults(len(model.StageTimes))
	if cfg.Topology.Sockets == 0 {
		cfg.Topology = platform.DefaultTopology()
	}
	s := &pipeSim{
		cfg:    cfg,
		model:  model,
		agenda: newAgenda(),
		alt:    cfg.Alt,
		clock:  platform.NewVirtualClock(time.Unix(0, 0)),
	}
	s.features = platform.NewFeatures()
	if cfg.PowerBudget > 0 || cfg.SampleEvery > 0 {
		s.pmodel = power.NewDefaultModel(cfg.Contexts)
		period := power.DefaultSamplePeriod
		if cfg.PDUPeriod > 0 {
			period = time.Duration(cfg.PDUPeriod * float64(time.Second))
		}
		s.pdu = power.NewPDU(func() float64 {
			return s.pmodel.Watts(s.totalBusy())
		}, period, s.clock)
		s.features.Register(platform.FeatureSystemPower, s.pdu.FeatureCB())
	}
	s.setExtents(cfg.Alt, cfg.Extents)
	maxQ := len(model.StageTimes)
	s.queues = make([][]float64, maxQ+1)
	s.itemAt = make([][]float64, maxQ+1)

	if cfg.LoadFactor > 0 {
		// Open-loop server mode: calibrate against batch throughput of the
		// sequential-ish reference (paper's N/T definition with each task
		// itself sequential → fused alternative at extent = contexts).
		ref := RunPipeline(model, PipelineConfig{
			Contexts: cfg.Contexts, Tasks: cfg.Tasks, Alt: 1,
			Extents: []int{cfg.Contexts},
		})
		rate := workload.LoadFactor(cfg.LoadFactor).RateFor(ref.Throughput)
		s.arrivals = workload.NewArrivals(rate, cfg.Seed)
		s.agenda.schedule(s.arrivals.Next().Seconds(), evArrival, 0, 0)
	} else {
		// Batch mode: everything arrives at time zero.
		for i := 0; i < cfg.Tasks; i++ {
			s.queues[0] = append(s.queues[0], 0)
			s.itemAt[0] = append(s.itemAt[0], 0)
		}
		s.arrived = cfg.Tasks
	}
	if cfg.Mechanism != nil {
		s.agenda.schedule(cfg.ControlEvery, evControl, 0, 0)
	}
	if cfg.SampleEvery > 0 {
		s.agenda.schedule(cfg.SampleEvery, evSample, 0, 0)
	}
	s.pump()
	s.loop()

	res := PipelineResult{
		Throughput:       float64(s.completed) / math.Max(s.lastAt, 1e-9),
		SteadyThroughput: float64(s.completed-cfg.Tasks/2) / math.Max(s.lastAt-s.halfAt, 1e-9),
		MeanResponse:     s.resp.Mean(),
		Reconfigurations: s.reconfs,
		Resizes:          s.resizes,
		Drains:           s.drains,
		FinalExtents:     append([]int(nil), s.extents...),
		FinalAlt:         s.alt,
		Samples:          s.samples,
	}
	if p95, err := stats.Percentile(s.respAll, 95); err == nil {
		res.P95Response = p95
	}
	if s.powerObs > 0 {
		res.MeanPower = s.powerSum / float64(s.powerObs)
	}
	res.EnergyJ = s.energyJ
	return res
}

func (s *pipeSim) loop() {
	for !s.agenda.empty() {
		ev := s.agenda.next()
		if s.pmodel != nil && ev.at > s.energyAt {
			// Charge the interval since the last event at the draw that
			// held across it (busy only changes at events).
			s.energyJ += s.pmodel.Watts(s.totalBusy()) * (ev.at - s.energyAt)
			s.energyAt = ev.at
		}
		s.now = ev.at
		s.clock.Set(time.Unix(0, 0).Add(time.Duration(s.now * float64(time.Second))))
		switch ev.kind {
		case evArrival:
			s.arrived++
			s.queues[0] = append(s.queues[0], s.now)
			s.itemAt[0] = append(s.itemAt[0], s.now)
			if s.arrived < s.cfg.Tasks {
				s.agenda.schedule(s.now+s.arrivals.Next().Seconds(), evArrival, 0, 0)
			}
			s.pump()
		case evCompletion:
			s.finishService(ev.stage, ev.item)
			s.pump()
		case evControl:
			s.control()
			if s.completed < s.cfg.Tasks {
				s.agenda.schedule(s.now+s.cfg.ControlEvery, evControl, 0, 0)
			}
		case evResume:
			s.pump()
		case evSample:
			s.sample()
			if s.completed < s.cfg.Tasks {
				s.agenda.schedule(s.now+s.cfg.SampleEvery, evSample, 0, 0)
			}
		}
	}
}

// totalExtent sums the configured pool sizes of the active alternative.
func (s *pipeSim) totalExtent() int {
	t := 0
	for _, e := range s.extents {
		t += e
	}
	return t
}

func (s *pipeSim) totalBusy() int {
	t := 0
	for _, b := range s.busy {
		t += b
	}
	return t
}

// capacityOf returns the concurrent-server cap of stage i, honoring
// physical contexts and oversubscription semantics. In the Pthreads-OS
// baseline "each parallel task is initialized with a thread pool containing
// as many threads as the number of available hardware threads" (§8.2.2);
// sequential tasks keep their single thread.
func (s *pipeSim) capacityOf(i int) int {
	e := s.extents[i]
	if s.cfg.Oversubscribed && (s.alt == 1 || s.model.StageTypes[i] == core.PAR) {
		e = s.cfg.Contexts
	}
	return e
}

// contention returns the service-time multiplier under the current context
// demand: 1.0 while demand fits; when the OS time-slices D workers onto C
// contexts the effective rate drops by D/C plus the model's switching
// penalty.
func (s *pipeSim) contention(busyAfter int) float64 {
	base := 1.0
	if s.cfg.Oversubscribed || s.totalExtent() > s.cfg.Contexts {
		// Oversubscribed pools pollute caches and grow working sets even
		// before every thread is runnable — the Pthreads-OS tax, also paid
		// by uncoordinated mechanisms (SEDA) whose per-stage pools sum past
		// the machine.
		base += s.model.OSBaseOverhead
	}
	c := float64(s.cfg.Contexts)
	d := float64(busyAfter)
	if d <= c {
		return base
	}
	over := d/c - 1
	return base * (d / c) * (1 + s.model.OSPenalty*over)
}

// stageService is stage i's per-item time under the current extents and
// placement.
func (s *pipeSim) stageService(i int) float64 {
	hop := 1.0
	if i < len(s.hopMult) {
		hop = s.hopMult[i]
	}
	return s.model.stageService(i, s.extents[i], hop)
}

// stageService is stage i's per-item time at the given extent: base time,
// forwarding cost scaled by the placement's locality multiplier hop (stages
// after the first), and coordination inflation.
func (m *PipelineModel) stageService(i, extent int, hop float64) float64 {
	t := m.StageTimes[i]
	if i > 0 {
		t += m.HopTime * hop
	}
	if m.StageTypes[i] == core.PAR && extent > 1 {
		t *= 1 + m.Sigma*float64(extent-1)
	}
	return t
}

// fusedService is the fused task's per-item time at the given extent.
func (s *pipeSim) fusedService(extent int) float64 {
	t := s.model.FusedTime()
	if extent > 1 {
		t *= 1 + s.model.FusedSigma*float64(extent-1)
	}
	return t
}

// pump starts service wherever a stage has capacity and input; while an
// alternative switch is pending it instead waits for the drain barrier, and
// while a freeze window (ResizeCost/DrainCost) is open it waits for the
// evResume that closes it.
func (s *pipeSim) pump() {
	if s.pending != nil {
		if s.totalBusy() > 0 {
			return // drain barrier: let in-flight services finish
		}
		s.migrateQueues()
		s.setExtents(s.pending.alt, s.pending.extents)
		s.pending = nil
		s.drains++
		s.freeze(s.cfg.DrainCost)
	}
	if s.now < s.frozenUntil {
		return
	}
	for i := 0; i < s.nStages(); i++ {
		for s.busy[i] < s.capacityOf(i) && len(s.queues[i]) > 0 {
			s.queues[i] = s.queues[i][1:]
			arrival := s.itemAt[i][0]
			s.itemAt[i] = s.itemAt[i][1:]
			s.busy[i]++
			var t float64
			if s.alt == 1 {
				t = s.fusedService(s.extents[0])
			} else {
				t = s.stageService(i)
			}
			t *= s.contention(s.totalBusy())
			// The item's original arrival rides in the event's item field
			// as an index into the stash.
			id := s.stash(arrival)
			s.agenda.schedule(s.now+t, evCompletion, i, id)
		}
	}
}

// stash carries an item's original-arrival stamp through its service
// event; the returned id rides in the event's item field.
func (s *pipeSim) stash(arrival float64) int {
	s.stashed = append(s.stashed, arrival)
	return len(s.stashed) - 1
}

func (s *pipeSim) finishService(stage, id int) {
	arrival := s.stashed[id]
	s.busy[stage]--
	last := s.nStages() - 1
	if stage >= last {
		s.completed++
		s.lastAt = s.now
		if s.completed == s.cfg.Tasks/2 {
			s.halfAt = s.now
		}
		s.resp.Observe(s.now - arrival)
		s.respAll = append(s.respAll, s.now-arrival)
		if s.pmodel != nil {
			s.powerSum += s.pmodel.Watts(s.totalBusy())
			s.powerObs++
		}
		return
	}
	s.queues[stage+1] = append(s.queues[stage+1], s.now)
	s.itemAt[stage+1] = append(s.itemAt[stage+1], arrival)
}

// setExtents installs a configuration, resizing the busy bookkeeping.
func (s *pipeSim) setExtents(alt int, extents []int) {
	n := len(s.model.StageTimes)
	if alt == 1 {
		n = 1
	}
	e := make([]int, n)
	for i := range e {
		e[i] = 1
		if i < len(extents) && extents[i] > 0 {
			e[i] = extents[i]
		}
		if alt == 0 && s.model.StageTypes[i] == core.SEQ {
			e[i] = 1
		}
	}
	s.alt = alt
	s.extents = e
	s.hopMult = placementMultipliers(s.cfg.Topology, e, s.cfg.Placement,
		func(stage int, mult float64) float64 {
			if alt == 1 {
				return s.fusedService(e[0])
			}
			return s.model.stageService(stage, e[stage], mult)
		})
	if len(s.busy) < n {
		nb := make([]int, n)
		copy(nb, s.busy)
		s.busy = nb
	}
}

// freeze blocks new service starts for d simulated seconds and schedules
// the evResume that reopens the pumps. Overlapping freezes extend, never
// shorten, the window.
func (s *pipeSim) freeze(d float64) {
	if d <= 0 {
		return
	}
	until := s.now + d
	if until > s.frozenUntil {
		s.frozenUntil = until
	}
	s.agenda.schedule(until, evResume, 0, 0)
}

// control synthesizes a report and applies the mechanism's decision with
// the real executive's cost structure: extent-only changes resize in place
// (service keeps flowing, modulo ResizeCost) while alternative switches pay
// the drain barrier in pump plus DrainCost.
func (s *pipeSim) control() {
	rep := s.report()
	newCfg := s.cfg.Mechanism.Reconfigure(rep)
	if newCfg == nil {
		return
	}
	newCfg.Normalize(s.model.Spec)
	switch {
	case s.pending != nil:
		// A switch is already in flight; update its target.
		if newCfg.Alt == s.alt && s.pending.alt == s.alt {
			s.pending = nil
			s.setExtents(newCfg.Alt, newCfg.Extents)
			s.resizes++
			s.freeze(s.cfg.ResizeCost)
		} else {
			s.pending = &pendingSwitch{alt: newCfg.Alt, extents: newCfg.Extents}
		}
		s.reconfs++
	case newCfg.Alt != s.alt:
		s.pending = &pendingSwitch{alt: newCfg.Alt, extents: newCfg.Extents}
		s.reconfs++
		s.pump()
	case !equalInts(newCfg.Extents, s.extents):
		s.setExtents(newCfg.Alt, newCfg.Extents)
		s.reconfs++
		s.resizes++
		s.freeze(s.cfg.ResizeCost)
		s.pump()
	}
}

// migrateQueues hands items stranded in intermediate queues to the new
// alternative's input — the explicit drain the real applications perform
// in their fused Make (work conservation across fusion switches).
func (s *pipeSim) migrateQueues() {
	for i := len(s.queues) - 1; i >= 1; i-- {
		if len(s.queues[i]) > 0 {
			s.queues[0] = append(s.queues[0], s.queues[i]...)
			s.itemAt[0] = append(s.itemAt[0], s.itemAt[i]...)
			s.queues[i] = nil
			s.itemAt[i] = nil
		}
	}
}

func (s *pipeSim) sample() {
	n := s.completed - s.lastSampN
	dt := s.now - s.lastSampT
	tp := 0.0
	if dt > 0 {
		tp = float64(n) / dt
	}
	pw := 0.0
	if s.pdu != nil {
		pw = s.pdu.Read()
	}
	te := 0
	for _, e := range s.extents {
		te += e
	}
	s.samples = append(s.samples, SamplePoint{Time: s.now, Throughput: tp, Power: pw, TotalExtent: te})
	s.lastSampN = s.completed
	s.lastSampT = s.now
}

// report synthesizes the core.Report for the active alternative.
func (s *pipeSim) report() *core.Report {
	spec := s.model.Spec
	cfg := &core.Config{Alt: s.alt, Extents: append([]int(nil), s.extents...)}
	cfg.Normalize(spec)
	alt := spec.Alt(s.alt)
	iters := uint64(s.completed + 100)
	stages := make([]core.StageReport, len(alt.Stages))
	for i := range alt.Stages {
		st := &alt.Stages[i]
		var t float64
		if s.alt == 1 {
			t = s.fusedService(s.extents[0])
		} else {
			t = s.stageService(i)
		}
		stages[i] = core.StageReport{
			Name: st.Name, Type: st.Type,
			Extent: s.extents[i], ExecTime: t, MeanExecTime: t,
			Load: float64(len(s.queues[i])), LoadInstances: 1,
			Iterations: iters,
			Rate:       float64(s.extents[i]) / t,
			Observed:   true,
		}
	}
	return &core.Report{
		Contexts:     s.cfg.Contexts,
		BusyContexts: s.totalBusy(),
		Features:     s.features,
		Config:       cfg,
		Root: &core.NestReport{
			Name: spec.Name, Path: spec.Name, Spec: spec,
			AltIndex: s.alt, AltName: alt.Name, Stages: stages,
		},
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
