package mechanism

// Phase returns a human-readable controller phase for traces.
func (m *TPC) Phase() string {
	switch m.phase {
	case tpcRamp:
		return "ramp"
	case tpcExplore:
		return "explore"
	default:
		return "stable"
	}
}

// InPar reports whether the machine is currently in the PAR (latency-mode)
// state.
func (m *WQTH) InPar() bool { return m.inPar }
