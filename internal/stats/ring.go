package stats

import "sync"

// Point is one sample of a time series: the value V observed at T seconds of
// uptime, stamped with the producing collector's global sequence number so
// consumers can fetch incrementally ("everything after cursor C") without
// the producer tracking per-consumer state.
type Point struct {
	Seq uint64  `json:"seq"`
	T   float64 `json:"t"`
	V   float64 `json:"v"`
}

// PointRing is a fixed-capacity ring of Points. When full, each append
// evicts the oldest point — the live-ops backpressure policy: a consumer
// that falls more than a window behind loses the oldest samples, never
// blocks the producer. Safe for concurrent use; Append is O(1) and
// allocation-free after construction.
type PointRing struct {
	mu   sync.Mutex
	buf  []Point
	head int // index of the oldest point
	n    int
}

// NewPointRing returns a ring holding at most capacity points. Capacity
// below 1 is treated as 1.
func NewPointRing(capacity int) *PointRing {
	if capacity < 1 {
		capacity = 1
	}
	return &PointRing{buf: make([]Point, capacity)}
}

// Append adds a point, evicting the oldest when full. Sequence numbers are
// assigned by the caller and must be monotonically increasing per ring;
// Since relies on that order to binary-search its cut.
func (r *PointRing) Append(p Point) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.buf[r.head] = p
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.buf[(r.head+r.n)%len(r.buf)] = p
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of points currently held.
func (r *PointRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Since copies out every held point with Seq > cursor, oldest first. A zero
// cursor returns the whole window. Points older than the ring window are
// gone — an incremental consumer that slept too long simply resumes from
// what remains (and can detect the gap by comparing the first returned Seq
// against its cursor+1).
func (r *PointRing) Since(cursor uint64) []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Binary search the oldest index with Seq > cursor (points are in
	// ascending Seq order from head).
	lo, hi := 0, r.n
	for lo < hi {
		mid := (lo + hi) / 2
		if r.buf[(r.head+mid)%len(r.buf)].Seq > cursor {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == r.n {
		return nil
	}
	out := make([]Point, 0, r.n-lo)
	for i := lo; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Snapshot is Since(0): a copy of the full held window, oldest first.
func (r *PointRing) Snapshot() []Point { return r.Since(0) }
