package sim

import (
	"testing"

	"dope/internal/mechanism"
)

// --- reconfiguration cost model ---------------------------------------------
//
// The simulator mirrors the executive's two reconfiguration paths: extent-only
// changes resize worker groups in place (Resizes, optional ResizeCost freeze)
// while alternative switches pay the drain barrier plus DrainCost (Drains).

func TestInPlaceResizeVsAltSwitch(t *testing.T) {
	run := func(disableFusion bool) PipelineResult {
		return RunPipeline(Ferret(), PipelineConfig{
			Tasks: 800, ControlEvery: 0.02,
			Extents:    []int{1, 1, 1, 1, 1, 1},
			Mechanism:  &mechanism.TBF{Threads: 24, DisableFusion: disableFusion},
			ResizeCost: 0.002, DrainCost: 0.05,
		})
	}
	inPlace := run(true)
	if inPlace.Resizes == 0 {
		t.Fatal("extent-only mechanism produced no in-place resizes")
	}
	if inPlace.Drains != 0 {
		t.Fatalf("extent-only changes must not drain, got %d drains", inPlace.Drains)
	}
	fusing := run(false)
	if fusing.FinalAlt == 0 || fusing.Drains == 0 {
		t.Fatalf("TBF's switch to the fused alternative must pay the drain barrier: %+v", fusing)
	}
}

func TestResizeCostCharged(t *testing.T) {
	model := Ferret()
	run := func(resizeCost float64) PipelineResult {
		return RunPipeline(model, PipelineConfig{
			Tasks: 600, ControlEvery: 0.02,
			Extents:    []int{1, 1, 1, 1, 1, 1},
			Mechanism:  &mechanism.TBF{Threads: 24, DisableFusion: true},
			ResizeCost: resizeCost,
		})
	}
	free := run(0)
	costly := run(0.05)
	if free.Resizes == 0 || costly.Resizes == 0 {
		t.Fatalf("expected resizes in both arms: free %d, costly %d", free.Resizes, costly.Resizes)
	}
	if costly.Throughput >= free.Throughput {
		t.Fatalf("ResizeCost freeze should lower throughput: costly %.1f >= free %.1f",
			costly.Throughput, free.Throughput)
	}
}
