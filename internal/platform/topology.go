package platform

// Topology describes the machine's socket structure. The paper's third
// orchestration decision — "on which hardware thread should each stage be
// placed to maximize locality of communication" (§1) — needs to know which
// contexts share a socket: tasks exchanging items across sockets pay more
// for every queue transfer than tasks sharing a last-level cache.
type Topology struct {
	// Sockets is the number of processor packages.
	Sockets int
	// CoresPerSocket is the number of hardware contexts per package.
	CoresPerSocket int
}

// DefaultTopology is the evaluation machine: 4 sockets × 6-core Intel
// X7460 (§8.2).
func DefaultTopology() Topology { return Topology{Sockets: 4, CoresPerSocket: 6} }

// Contexts returns the machine's total hardware contexts.
func (t Topology) Contexts() int { return t.Sockets * t.CoresPerSocket }

// SocketOf returns the socket housing context id (ids are dense,
// socket-major). Out-of-range ids clamp to the last socket.
func (t Topology) SocketOf(ctx int) int {
	if ctx < 0 {
		return 0
	}
	s := ctx / t.CoresPerSocket
	if s >= t.Sockets {
		return t.Sockets - 1
	}
	return s
}

// SharedFraction estimates the fraction of communication between two
// context blocks that stays on-socket: the overlap of their socket sets
// weighted by the receiving block's distribution. Blocks are contiguous
// [aStart, aStart+aN) and [bStart, bStart+bN).
func (t Topology) SharedFraction(aStart, aN, bStart, bN int) float64 {
	if aN <= 0 || bN <= 0 {
		return 0
	}
	inA := make(map[int]bool)
	for c := aStart; c < aStart+aN; c++ {
		inA[t.SocketOf(c)] = true
	}
	shared := 0
	for c := bStart; c < bStart+bN; c++ {
		if inA[t.SocketOf(c)] {
			shared++
		}
	}
	return float64(shared) / float64(bN)
}
