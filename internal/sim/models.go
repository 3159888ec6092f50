package sim

import (
	"math"

	"dope/internal/core"
)

// noopMake satisfies AltSpec.Make for specs the simulator uses only
// structurally (mechanisms read names, types and DoP bounds; nothing is
// ever instantiated).
func noopMake(item any) (*core.AltInstance, error) { return nil, nil }

// ServerModel describes a two-level server application (Figure 1's shape)
// analytically: how long one transaction takes as a function of the inner
// DoP extent. Times are in seconds of simulated wall-clock.
type ServerModel struct {
	// Name labels the application.
	Name string
	// InnerName is the nested nest's name in Spec.
	InnerName string
	// Spec is the structural nest tree handed to mechanisms.
	Spec *core.NestSpec
	// SeqTime is the fused sequential transaction time.
	SeqTime float64
	// ParTime returns the transaction time at inner extent m (m >= 2); the
	// simulator calls SeqTime for m <= 1 or the fused alternative.
	ParTime func(m int) float64
	// InnerStageTimes reports the per-stage service times of the inner
	// parallel alternative for report synthesis, index-aligned with the
	// parallel alternative's stages.
	InnerStageTimes []float64
}

// ExecTime returns the transaction time for inner extent m under the
// chosen inner alternative semantics (extent <= 1 means sequential).
func (m *ServerModel) ExecTime(extent int) float64 {
	if extent <= 1 {
		return m.SeqTime
	}
	return m.ParTime(extent)
}

// Mmax returns the largest inner extent whose parallel efficiency
// SeqTime/(m·ParTime(m)) stays at or above minEff — the paper's Mmax
// definition ("DoP extent above which parallel efficiency drops below
// 0.5").
func (m *ServerModel) Mmax(minEff float64, limit int) int {
	best := 1
	for e := 2; e <= limit; e++ {
		eff := m.SeqTime / (float64(e) * m.ParTime(e))
		if eff >= minEff {
			best = e
		}
	}
	return best
}

// serverSpec builds the structural two-level spec shared by the server
// models: root "serve" PAR stage nesting innerName with a parallel and a
// fused alternative.
func serverSpec(app, innerName string, parStages []core.StageSpec) *core.NestSpec {
	inner := &core.NestSpec{Name: innerName, Alts: []*core.AltSpec{
		{Name: "parallel", Stages: parStages, Make: noopMake},
		{Name: "fused", Stages: []core.StageSpec{{Name: "fused", Type: core.SEQ}}, Make: noopMake},
	}}
	return &core.NestSpec{Name: app, Alts: []*core.AltSpec{{
		Name:   "outer",
		Stages: []core.StageSpec{{Name: "serve", Type: core.PAR, Nest: inner}},
		Make:   noopMake,
	}}}
}

// pipeStages is shorthand for building stage specs.
func pipeStages(names []string, types []core.TaskType, minDoP []int) []core.StageSpec {
	out := make([]core.StageSpec, len(names))
	for i := range names {
		out[i] = core.StageSpec{Name: names[i], Type: types[i]}
		if minDoP != nil {
			out[i].MinDoP = minDoP[i]
		}
	}
	return out
}

// --- The four server applications, calibrated to the paper -----------------

// Transcode models x264 video transcoding: 24 frames per video, pipeline
// read|transform|write with σ = 0.04 so speedup(8) ≈ 6.3× (Figure 2(a))
// and efficiency(8) ≈ 0.79, dropping below 0.5 past m ≈ 26 — the knee is
// therefore imposed by the evaluation machine's 24 contexts, matching the
// paper's use of 8 as the practical Mmax for <N/Mmax, Mmax> configurations.
func Transcode() *ServerModel {
	const (
		frames = 24
		unit   = 1.5e-3 // transform seconds per frame
		sigma  = 0.04
	)
	seq := frames * unit * 1.25
	// Speedup follows m/(1+σ(m-1)) up to the frame-dependency height of 8
	// (x264's motion-compensation chains), then saturates: extra workers
	// cost contexts without transcoding faster. s(8) = 8/1.28 ≈ 6.25,
	// matching Figure 2(a)'s 6.3× maximum, and efficiency collapses past
	// the knee exactly as the paper's Mmax definition requires.
	par := func(m int) float64 {
		eff := m
		if eff > 8 {
			eff = 8
		}
		s := float64(eff) / (1 + sigma*float64(eff-1))
		return seq / s
	}
	return &ServerModel{
		Name:      "x264",
		InnerName: "video",
		Spec: serverSpec("x264", "video", pipeStages(
			[]string{"read", "transform", "write"},
			[]core.TaskType{core.SEQ, core.PAR, core.SEQ},
			[]int{0, 2, 0})),
		SeqTime:         seq,
		ParTime:         par,
		InnerStageTimes: []float64{unit / 8, unit, unit / 8},
	}
}

// Swaptions models Monte Carlo option pricing: 32 chunks per request,
// DOALL with σ = 0.05.
func Swaptions() *ServerModel {
	const (
		chunks = 32
		unit   = 1.2e-3
		sigma  = 0.05
	)
	seq := chunks * unit
	par := func(m int) float64 {
		waves := math.Ceil(float64(chunks) / float64(m))
		return waves * unit * (1 + sigma*float64(m-1))
	}
	return &ServerModel{
		Name:      "swaptions",
		InnerName: "price",
		Spec: serverSpec("swaptions", "price", pipeStages(
			[]string{"simulate"},
			[]core.TaskType{core.PAR},
			[]int{2})),
		SeqTime:         seq,
		ParTime:         par,
		InnerStageTimes: []float64{unit},
	}
}

// Compress models bzip block compression: 16 blocks per file, a fixed
// parallel startup of 2 block-times plus σ = 0.10 coordination, so the
// minimum extent with any speedup is 4 (Table 4's DoPmin) — below that the
// parallel path is slower than the fused compressor — and the parallel
// efficiency stays low enough that WQ-Linear's intermediate configurations
// are unhelpful (§8.2.1's observation for bzip).
func Compress() *ServerModel {
	const (
		blocks  = 16
		unit    = 1.6e-3
		sigma   = 0.10
		startup = 2
	)
	seq := blocks * unit * 1.125
	par := func(m int) float64 {
		e := m - 2
		if e < 1 {
			e = 1
		}
		waves := math.Ceil(float64(blocks) / float64(e))
		return float64(startup)*unit + waves*unit*(1+sigma*float64(e-1)) + 2*unit/16
	}
	return &ServerModel{
		Name:      "bzip",
		InnerName: "file",
		Spec: serverSpec("bzip", "file", pipeStages(
			[]string{"split", "compress", "concat"},
			[]core.TaskType{core.SEQ, core.PAR, core.SEQ},
			[]int{0, 4, 0})),
		SeqTime:         seq,
		ParTime:         par,
		InnerStageTimes: []float64{unit / 16, unit, unit / 16},
	}
}

// Oilify models the gimp oilify plugin: 24 tile rows per image, DOALL with
// σ = 0.06 (neighborhood filters share tile edges).
func Oilify() *ServerModel {
	const (
		rows  = 24
		unit  = 1.8e-3
		sigma = 0.06
	)
	seq := rows * unit
	par := func(m int) float64 {
		waves := math.Ceil(float64(rows) / float64(m))
		return waves * unit * (1 + sigma*float64(m-1))
	}
	return &ServerModel{
		Name:      "gimp",
		InnerName: "image",
		Spec: serverSpec("gimp", "image", pipeStages(
			[]string{"filter"},
			[]core.TaskType{core.PAR},
			[]int{2})),
		SeqTime:         seq,
		ParTime:         par,
		InnerStageTimes: []float64{unit},
	}
}

// PipelineModel describes a single-level pipeline application (ferret,
// dedup) analytically.
type PipelineModel struct {
	// Name labels the application.
	Name string
	// Spec is the structural nest handed to mechanisms: alternative 0 is
	// the pipeline, alternative 1 the fused task.
	Spec *core.NestSpec
	// StageTimes is the base per-item service time of each pipeline stage.
	StageTimes []float64
	// StageTypes marks SEQ/PAR per stage.
	StageTypes []core.TaskType
	// HopTime is the per-item inter-stage forwarding cost paid by every
	// pipeline stage after the first; the fused task avoids it.
	HopTime float64
	// Sigma is the per-worker coordination overhead of pipeline stages.
	Sigma float64
	// FusedSigma is the (lower) coordination overhead of the fused task:
	// fused workers process whole items independently, so they synchronize
	// far less than pipeline stages trading items through queues. This is
	// the second half of why explicit fusion beats FDP's time-multiplexed
	// emulation (§8.2.2).
	FusedSigma float64
	// OSPenalty scales the extra slowdown when the OS time-slices an
	// oversubscribed machine (context switching, cache pollution); dedup's
	// is higher, making Pthreads-OS a loss there (Figure 15).
	OSPenalty float64
	// OSBaseOverhead is a flat service-time tax paid whenever the machine
	// runs with oversubscribed pools, even before demand exceeds supply:
	// larger working sets and thread state pollute caches. This is what
	// drags dedup's Pthreads-OS row below its baseline (0.89×).
	OSBaseOverhead float64
}

// FusedTime is the per-item service time of the fused task at extent 1.
func (m *PipelineModel) FusedTime() float64 {
	t := 0.0
	for _, s := range m.StageTimes {
		t += s
	}
	return t
}

// Ferret models the 6-stage image-search engine. The rank stage dominates
// (similarity search against the whole index), so a static even thread
// distribution starves it badly — which is why the paper's Pthreads-OS row
// improves 2.12× over the even baseline and DoPE does better still.
func Ferret() *PipelineModel {
	base := 0.4e-3
	return &PipelineModel{
		Name: "ferret",
		Spec: &core.NestSpec{Name: "ferret", Alts: []*core.AltSpec{
			{Name: "pipeline", Make: noopMake, Stages: pipeStages(
				[]string{"load", "segment", "extract", "index", "rank", "out"},
				[]core.TaskType{core.SEQ, core.PAR, core.PAR, core.PAR, core.PAR, core.SEQ},
				nil)},
			{Name: "fused", Make: noopMake, Stages: pipeStages(
				[]string{"query"},
				[]core.TaskType{core.PAR},
				nil)},
		}},
		StageTimes:     []float64{0.5 * base, 1 * base, 2 * base, 4 * base, 14 * base, 0.5 * base},
		StageTypes:     []core.TaskType{core.SEQ, core.PAR, core.PAR, core.PAR, core.PAR, core.SEQ},
		HopTime:        base / 4,
		Sigma:          0.03,
		FusedSigma:     0.01,
		OSPenalty:      0.08,
		OSBaseOverhead: 0.25,
	}
}

// Dedup models the deduplication pipeline. Its stages are cheaper and more
// memory-bound (hash-table traffic), so OS oversubscription pays cache
// pollution without buying balance: the paper measures 0.89× for its
// Pthreads-OS row.
func Dedup() *PipelineModel {
	base := 3.2e-3
	return &PipelineModel{
		Name: "dedup",
		Spec: &core.NestSpec{Name: "dedup", Alts: []*core.AltSpec{
			{Name: "pipeline", Make: noopMake, Stages: pipeStages(
				[]string{"chunk", "hash", "compress", "write"},
				[]core.TaskType{core.SEQ, core.PAR, core.PAR, core.SEQ},
				nil)},
			{Name: "fused", Make: noopMake, Stages: pipeStages(
				[]string{"dedup"},
				[]core.TaskType{core.PAR},
				nil)},
		}},
		StageTimes:     []float64{base / 4, base / 2, base, base / 16},
		StageTypes:     []core.TaskType{core.SEQ, core.PAR, core.PAR, core.SEQ},
		HopTime:        base / 6,
		Sigma:          0.15,
		FusedSigma:     0.02,
		OSPenalty:      1.0,
		OSBaseOverhead: 0.12,
	}
}
