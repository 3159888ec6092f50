package sim

import (
	"testing"

	"dope/internal/platform"
)

func TestHopMultipliersNone(t *testing.T) {
	topo := platform.DefaultTopology()
	m := placementMultipliers(topo, []int{1, 5, 5, 5, 6, 1}, PlaceNone, nil)
	for i, v := range m {
		if v != 1 {
			t.Fatalf("PlaceNone stage %d multiplier = %v", i, v)
		}
	}
}

func TestHopMultipliersScatter(t *testing.T) {
	topo := platform.DefaultTopology()
	m := placementMultipliers(topo, []int{1, 5, 5, 5, 6, 1}, PlaceScatter, nil)
	want := 0.25 + 0.75*CrossSocketFactor
	for i := 1; i < len(m); i++ {
		if diff := m[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("scatter multiplier[%d] = %v, want %v", i, m[i], want)
		}
	}
	if m[0] != 1 {
		t.Fatal("head stage has no in-edge")
	}
}

func TestContiguousTotalCostBeatsScatter(t *testing.T) {
	// With a full machine some edge must cross sockets; the contiguous
	// layout still pays less communication in AGGREGATE than scattering
	// every stage across every socket.
	topo := platform.DefaultTopology()
	extents := []int{1, 5, 5, 5, 6, 1}
	cont := placementMultipliers(topo, extents, PlaceContiguous, nil)
	scat := placementMultipliers(topo, extents, PlaceScatter, nil)
	sum := func(m []float64) float64 {
		s := 0.0
		for _, v := range m[1:] {
			s += v
		}
		return s
	}
	if sum(cont) >= sum(scat) {
		t.Fatalf("contiguous total %v should beat scatter total %v", sum(cont), sum(scat))
	}
}

func TestContiguousFullySharedWithinSocket(t *testing.T) {
	// Two adjacent one-worker stages inside one socket communicate at base
	// cost.
	topo := platform.Topology{Sockets: 4, CoresPerSocket: 6}
	m := placementMultipliers(topo, []int{1, 1}, PlaceContiguous, nil)
	if m[1] != 1 {
		t.Fatalf("same-socket hop multiplier = %v, want 1", m[1])
	}
}

func TestPlacementAffectsThroughput(t *testing.T) {
	model := Ferret()
	base := PipelineConfig{Tasks: 400, Extents: []int{1, 2, 3, 5, 10, 1}}
	cfgC := base
	cfgC.Placement = PlaceContiguous
	cfgS := base
	cfgS.Placement = PlaceScatter

	cont := RunPipeline(model, cfgC)
	scat := RunPipeline(model, cfgS)
	none := RunPipeline(model, base)
	if cont.Throughput <= scat.Throughput {
		t.Fatalf("locality-aware placement %f should beat scatter %f",
			cont.Throughput, scat.Throughput)
	}
	if none.Throughput < cont.Throughput {
		t.Fatalf("PlaceNone (base hop) should be the no-penalty reference: none=%f cont=%f",
			none.Throughput, cont.Throughput)
	}
}

func TestTopologyBasics(t *testing.T) {
	topo := platform.DefaultTopology()
	if topo.Contexts() != 24 {
		t.Fatalf("contexts = %d", topo.Contexts())
	}
	if topo.SocketOf(0) != 0 || topo.SocketOf(5) != 0 || topo.SocketOf(6) != 1 || topo.SocketOf(23) != 3 {
		t.Fatal("socket mapping wrong")
	}
	if topo.SocketOf(-1) != 0 || topo.SocketOf(99) != 3 {
		t.Fatal("socket clamping wrong")
	}
	if f := topo.SharedFraction(0, 6, 0, 6); f != 1 {
		t.Fatalf("same-block shared fraction = %v", f)
	}
	if f := topo.SharedFraction(0, 6, 6, 6); f != 0 {
		t.Fatalf("disjoint-socket shared fraction = %v", f)
	}
	if f := topo.SharedFraction(0, 0, 0, 6); f != 0 {
		t.Fatalf("empty block shared fraction = %v", f)
	}
	// Half of block B's contexts sit on block A's socket.
	if f := topo.SharedFraction(0, 6, 3, 6); f != 0.5 {
		t.Fatalf("boundary shared fraction = %v", f)
	}
}
