package queue

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The model: a queue is a slice. Every operation the driver issues is
// mirrored on it, and after every operation everything the queue exposes
// must agree with it. The driver is one goroutine, so it never issues an
// operation the model says would block.
type model struct {
	items    []int
	capacity int
	policy   OverloadPolicy
	closed   bool
	enq, deq uint64
	shed     uint64
	peak     int
}

func (m *model) full() bool { return m.capacity > 0 && len(m.items) >= m.capacity }

func (m *model) push(v int) {
	m.items = append(m.items, v)
	m.enq++
	m.peak = max(m.peak, len(m.items))
}

func (m *model) pop() int {
	v := m.items[0]
	m.items = m.items[1:]
	m.deq++
	return v
}

// modelCapacities covers the unbounded ring (growth from nothing), rings
// smaller than, equal to and larger than a power of two, and one deep enough
// for several laps of wrap-around per sequence.
var modelCapacities = []int{0, 1, 2, 3, 5, 8, 64}

// runOps interprets data as a queue configuration (two bytes) followed by
// one operation per byte, drives a real queue and the model side by side,
// and fails on the first disagreement. It is the body of both the property
// test and the fuzz target.
func runOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	m := &model{
		policy:   OverloadPolicy(data[0] % 3),
		capacity: modelCapacities[int(data[1])%len(modelCapacities)],
	}
	q := NewWithPolicy[int](m.capacity, m.policy)
	// A millisecond of virtual time per operation: far below the sampling
	// threshold, so every item is stamped and every dequeue is a sample.
	var now int64
	q.SetNowFunc(func() int64 { return now })

	next := 0 // values are consecutive, so FIFO order is checkable by value
	for step, op := range data[2:] {
		now += int64(time.Millisecond)
		switch op % 8 {
		case 0, 1, 2: // Enqueue, weighted so that sequences fill up and grow
			if m.full() && m.policy == Block && !m.closed {
				// Would block. The non-blocking form must refuse instead.
				if ok, err := q.TryEnqueue(next); ok || err != nil {
					t.Fatalf("step %d: TryEnqueue on a full queue = %v, %v", step, ok, err)
				}
				break
			}
			err := q.Enqueue(next)
			switch {
			case m.closed:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("step %d: Enqueue on a closed queue = %v", step, err)
				}
			case m.full() && m.policy == ShedNewest:
				if !errors.Is(err, ErrShed) {
					t.Fatalf("step %d: Enqueue on a full shed-newest queue = %v", step, err)
				}
				m.shed++
				next++
			default:
				if err != nil {
					t.Fatalf("step %d: Enqueue = %v", step, err)
				}
				if m.full() { // shed-oldest: the head makes room, unserved
					m.items = m.items[1:]
					m.shed++
				}
				m.push(next)
				next++
			}
		case 3: // TryEnqueue never sheds: full means refused
			ok, err := q.TryEnqueue(next)
			switch {
			case m.closed:
				if ok || !errors.Is(err, ErrClosed) {
					t.Fatalf("step %d: TryEnqueue on a closed queue = %v, %v", step, ok, err)
				}
			case m.full():
				if ok || err != nil {
					t.Fatalf("step %d: TryEnqueue on a full queue = %v, %v", step, ok, err)
				}
			default:
				if !ok || err != nil {
					t.Fatalf("step %d: TryEnqueue = %v, %v", step, ok, err)
				}
				m.push(next)
				next++
			}
		case 4: // Dequeue, or DequeueUntil(nil) — the same blocking form — when bit 3 is set
			if len(m.items) == 0 && !m.closed {
				if _, ok, err := q.TryDequeue(); ok || err != nil { // would block
					t.Fatalf("step %d: TryDequeue on an empty queue = %v, %v", step, ok, err)
				}
				break
			}
			var v int
			var err error
			if op&8 != 0 {
				var ok bool
				if v, ok, err = q.DequeueUntil(nil); ok != (err == nil) {
					t.Fatalf("step %d: DequeueUntil(nil) = %d, %v, %v", step, v, ok, err)
				}
			} else {
				v, err = q.Dequeue()
			}
			if len(m.items) == 0 {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("step %d: Dequeue on a closed, drained queue = %v", step, err)
				}
			} else if want := m.pop(); err != nil || v != want {
				t.Fatalf("step %d: Dequeue = %d, %v; want %d", step, v, err, want)
			}
		case 5: // TryDequeue, or DequeueUntil on a closed done — the same non-blocking form — when bit 3 is set
			var v int
			var ok bool
			var err error
			if op&8 != 0 {
				v, ok, err = q.DequeueUntil(closedDone())
			} else {
				v, ok, err = q.TryDequeue()
			}
			switch {
			case len(m.items) > 0:
				if want := m.pop(); !ok || err != nil || v != want {
					t.Fatalf("step %d: TryDequeue = %d, %v, %v; want %d", step, v, ok, err, want)
				}
			case m.closed:
				if ok || !errors.Is(err, ErrClosed) {
					t.Fatalf("step %d: TryDequeue on a closed, drained queue = %v, %v", step, ok, err)
				}
			default:
				if ok || err != nil {
					t.Fatalf("step %d: TryDequeue on an empty queue = %v, %v", step, ok, err)
				}
			}
		case 6:
			q.Close()
			m.closed = true
		case 7:
			q.Reopen()
			m.closed = false
		}
		if q.Len() != len(m.items) || q.Peak() != m.peak || q.Closed() != m.closed ||
			q.Enqueued() != m.enq || q.Dequeued() != m.deq || q.Shed() != m.shed ||
			q.SojournSamples() != m.deq {
			t.Fatalf("step %d (op %d, cap %d, %v): queue len %d peak %d closed %v enq %d deq %d shed %d samples %d; model %+v",
				step, op%8, m.capacity, m.policy, q.Len(), q.Peak(), q.Closed(),
				q.Enqueued(), q.Dequeued(), q.Shed(), q.SojournSamples(), *m)
		}
	}
	// What is left comes out in order, then the closed queue says so.
	q.Close()
	for _, want := range m.items {
		if v, err := q.Dequeue(); err != nil || v != want {
			t.Fatalf("drain: Dequeue = %d, %v; want %d", v, err, want)
		}
	}
	if _, err := q.Dequeue(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained queue: Dequeue = %v", err)
	}
}

// TestModelProperty drives random operation sequences over every policy
// and capacity. Long sequences over the unbounded queue take the ring
// through several doublings with the head anywhere in it; the small
// bounded ones lap theirs many times.
func TestModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3000; round++ {
		data := make([]byte, 2+rng.Intn(600))
		rng.Read(data)
		data[0], data[1] = byte(round), byte(round/3) // every policy × capacity in turn
		runOps(t, data)
	}
}

// FuzzQueueOps is the same oracle under the native fuzzer.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5}) // unbounded: grow with the head off zero
	f.Add([]byte{0, 2, 0, 0, 0, 3, 4, 0, 4, 0, 4, 0, 6, 0, 4, 7, 0}) // block, cap 2: refuse, wrap, close, reopen
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 0, 5, 0, 0, 4, 4, 4, 4})       // shed-oldest, cap 3
	f.Add([]byte{2, 1, 0, 0, 3, 0, 4, 4, 0, 6, 0, 5, 5})             // shed-newest, cap 1
	f.Add([]byte{0, 3, 0, 13, 0, 12, 12, 13, 6, 12, 13})             // block, cap 3: DequeueUntil in both forms, through close
	f.Fuzz(runOps)
}

// TestMPMCExactlyOnce is the concurrent counterpart of the model: many
// producers and consumers, each through a different entry point, over a
// ring that wraps every other item, one that is not a power of two, and an
// unbounded one that grows while consumers are inside it. Every value must
// come out exactly once. Run under -race.
func TestMPMCExactlyOnce(t *testing.T) {
	const producers, perProducer, consumers = 6, 3000, 6
	for _, capacity := range []int{1, 3, 0} {
		q := New[int](capacity)
		seen := make([]atomic.Int32, producers*perProducer)
		var pw, cw sync.WaitGroup
		for p := 0; p < producers; p++ {
			pw.Add(1)
			go func(p int) {
				defer pw.Done()
				for i := 0; i < perProducer; i++ {
					v := p*perProducer + i
					if p%2 == 0 {
						if err := q.Enqueue(v); err != nil {
							t.Errorf("cap %d: Enqueue: %v", capacity, err)
							return
						}
						continue
					}
					for {
						ok, err := q.TryEnqueue(v)
						if err != nil {
							t.Errorf("cap %d: TryEnqueue: %v", capacity, err)
							return
						}
						if ok {
							break
						}
						time.Sleep(time.Microsecond) // full: let a consumer in
					}
				}
			}(p)
		}
		for c := 0; c < consumers; c++ {
			cw.Add(1)
			go func(c int) {
				defer cw.Done()
				for {
					var v int
					var ok bool
					var err error
					switch c % 3 {
					case 0:
						v, err = q.Dequeue()
						ok = err == nil
					case 1:
						if c%2 == 0 {
							v, ok, err = q.DequeueWhile(func() bool { return true }, time.Millisecond)
						} else {
							v, ok, err = q.DequeueUntil(nil)
						}
					default:
						if v, ok, err = q.TryDequeue(); !ok && err == nil {
							time.Sleep(time.Microsecond) // empty: let a producer in
							continue
						}
					}
					if err != nil {
						return // closed and drained
					}
					if ok {
						seen[v].Add(1)
					}
				}
			}(c)
		}
		pw.Wait()
		q.Close()
		cw.Wait()
		for v := range seen {
			if n := seen[v].Load(); n != 1 {
				t.Fatalf("cap %d: value %d delivered %d times", capacity, v, n)
			}
		}
		if q.Enqueued() != uint64(len(seen)) || q.Dequeued() != uint64(len(seen)) || q.Len() != 0 {
			t.Fatalf("cap %d: enqueued %d dequeued %d len %d, want %d %d 0",
				capacity, q.Enqueued(), q.Dequeued(), q.Len(), len(seen), len(seen))
		}
	}
}
