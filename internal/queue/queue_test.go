package queue

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](0)
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, err := q.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("got %d, want %d", v, i)
		}
	}
}

func TestLenTracksOccupancy(t *testing.T) {
	q := New[string](0)
	if q.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	q.Enqueue("a")
	q.Enqueue("b")
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Dequeue()
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Peak() != 2 {
		t.Fatalf("peak = %d", q.Peak())
	}
}

func TestCloseWakesConsumers(t *testing.T) {
	q := New[int](0)
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := q.Dequeue()
			done <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("consumer not woken by Close")
		}
	}
}

func TestCloseDrainsBeforeErr(t *testing.T) {
	q := New[int](0)
	q.Enqueue(1)
	q.Enqueue(2)
	q.Close()
	if v, err := q.Dequeue(); err != nil || v != 1 {
		t.Fatalf("got %v, %v", v, err)
	}
	if v, err := q.Dequeue(); err != nil || v != 2 {
		t.Fatalf("got %v, %v", v, err)
	}
	if _, err := q.Dequeue(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestEnqueueAfterCloseFails(t *testing.T) {
	q := New[int](0)
	q.Close()
	if err := q.Enqueue(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := q.TryEnqueue(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestBoundedBlocksProducer(t *testing.T) {
	q := New[int](1)
	q.Enqueue(1)
	ok, err := q.TryEnqueue(2)
	if err != nil || ok {
		t.Fatalf("TryEnqueue on full queue: ok=%v err=%v", ok, err)
	}
	released := make(chan struct{})
	go func() {
		q.Enqueue(2) // blocks until a slot frees
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("producer should be blocked")
	case <-time.After(10 * time.Millisecond):
	}
	q.Dequeue()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("producer never released")
	}
}

func TestCloseWakesBlockedProducer(t *testing.T) {
	q := New[int](1)
	q.Enqueue(1)
	errc := make(chan error, 1)
	go func() {
		errc <- q.Enqueue(2)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("producer not woken")
	}
}

func TestTryDequeue(t *testing.T) {
	q := New[int](0)
	if _, ok, err := q.TryDequeue(); ok || err != nil {
		t.Fatal("empty open queue should return (zero,false,nil)")
	}
	q.Enqueue(7)
	v, ok, err := q.TryDequeue()
	if !ok || err != nil || v != 7 {
		t.Fatalf("got %v %v %v", v, ok, err)
	}
	q.Close()
	if _, ok, err := q.TryDequeue(); ok || !errors.Is(err, ErrClosed) {
		t.Fatal("drained closed queue should return ErrClosed")
	}
}

func TestReopen(t *testing.T) {
	q := New[int](0)
	q.Close()
	if !q.Closed() {
		t.Fatal("should be closed")
	}
	q.Reopen()
	if q.Closed() {
		t.Fatal("should be open")
	}
	if err := q.Enqueue(1); err != nil {
		t.Fatalf("enqueue after reopen: %v", err)
	}
	if v, err := q.Dequeue(); err != nil || v != 1 {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const producers, perProducer, consumers = 8, 200, 8
	q := New[int](16)
	var got sync.Map
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Enqueue(p*perProducer + i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, err := q.Dequeue()
				if err != nil {
					return
				}
				if _, dup := got.LoadOrStore(v, true); dup {
					t.Errorf("duplicate value %d", v)
				}
			}
		}()
	}
	wg.Wait()
	q.Close()
	cg.Wait()
	count := 0
	got.Range(func(_, _ any) bool { count++; return true })
	if count != producers*perProducer {
		t.Fatalf("received %d items, want %d", count, producers*perProducer)
	}
	if q.Enqueued() != producers*perProducer || q.Dequeued() != producers*perProducer {
		t.Fatalf("counters: enq=%d deq=%d", q.Enqueued(), q.Dequeued())
	}
}

// Property: after any sequence of enqueues and dequeues,
// enqueued - dequeued == occupancy, and peak >= occupancy at all times.
func TestConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := New[int](0)
		for i, enq := range ops {
			if enq {
				q.Enqueue(i)
			} else {
				q.TryDequeue()
			}
			if int(q.Enqueued()-q.Dequeued()) != q.Len() {
				return false
			}
			if q.Peak() < q.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FIFO order holds for any prefix of enqueues followed by dequeues.
func TestFIFOProperty(t *testing.T) {
	f := func(n uint8) bool {
		q := New[int](0)
		for i := 0; i < int(n); i++ {
			q.Enqueue(i)
		}
		for i := 0; i < int(n); i++ {
			v, ok, err := q.TryDequeue()
			if !ok || err != nil || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDequeueWhileReturnsItemImmediately(t *testing.T) {
	q := New[int](0)
	q.Enqueue(7)
	v, ok, err := q.DequeueWhile(func() bool { return false }, time.Millisecond)
	if !ok || err != nil || v != 7 {
		t.Fatalf("got %v %v %v", v, ok, err)
	}
}

func TestDequeueWhileGivesUpWhenPredicateFalse(t *testing.T) {
	q := New[int](0)
	start := time.Now()
	_, ok, err := q.DequeueWhile(func() bool { return false }, time.Millisecond)
	if ok || err != nil {
		t.Fatalf("expected (zero,false,nil), got ok=%v err=%v", ok, err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("gave up too slowly")
	}
}

func TestDequeueWhileSeesLateItem(t *testing.T) {
	q := New[int](0)
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Enqueue(42)
	}()
	v, ok, err := q.DequeueWhile(func() bool { return true }, 500*time.Microsecond)
	if !ok || err != nil || v != 42 {
		t.Fatalf("got %v %v %v", v, ok, err)
	}
}

func TestDequeueWhileClosedQueue(t *testing.T) {
	q := New[int](0)
	q.Enqueue(1)
	q.Close()
	if v, ok, err := q.DequeueWhile(func() bool { return true }, 0); !ok || err != nil || v != 1 {
		t.Fatalf("drain failed: %v %v %v", v, ok, err)
	}
	if _, ok, err := q.DequeueWhile(func() bool { return true }, 0); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("closed+drained should return ErrClosed, got ok=%v err=%v", ok, err)
	}
}

func TestDequeueWhileWakesOnEnqueueWithSlowPoll(t *testing.T) {
	// With an event-driven wakeup, a consumer blocked with a long
	// keepWaiting poll must still receive an item promptly.
	q := New[int](0)
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Enqueue(9)
	}()
	start := time.Now()
	v, ok, err := q.DequeueWhile(func() bool { return true }, time.Second)
	if !ok || err != nil || v != 9 {
		t.Fatalf("got %v %v %v", v, ok, err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("enqueue did not wake the waiter; it slept the full poll")
	}
}

func TestDequeueWhileWakesOnCloseWithSlowPoll(t *testing.T) {
	q := New[int](0)
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Close()
	}()
	start := time.Now()
	_, ok, err := q.DequeueWhile(func() bool { return true }, time.Second)
	if ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("got ok=%v err=%v", ok, err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("close did not wake the waiter")
	}
}

func TestDequeueWhileManyWaitersAllDrain(t *testing.T) {
	q := New[int](0)
	const workers, items = 8, 200
	var got atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, ok, err := q.DequeueWhile(func() bool { return true }, time.Millisecond)
				if err != nil {
					return
				}
				if ok {
					got.Add(1)
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		q.Enqueue(i)
	}
	q.Close()
	wg.Wait()
	if got.Load() != items {
		t.Fatalf("drained %d of %d across concurrent DequeueWhile waiters", got.Load(), items)
	}
}

// Regression test for the enqueue-side wakeup audit: an enqueue into a
// *bounded* queue — including one by a producer that had been blocked on a
// full queue — must wake DequeueWhile waiters. The poll is deliberately
// huge so a missed wakeup hangs until the test timeout instead of being
// papered over by the periodic re-check.
func TestBoundedEnqueueWakesDequeueWhile(t *testing.T) {
	q := New[int](1)
	if err := q.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	produced := make(chan error, 1)
	go func() {
		produced <- q.Enqueue(2) // blocks: queue is full
	}()
	time.Sleep(5 * time.Millisecond) // let the producer block

	// Drain item 1; this frees the producer, whose enqueue of item 2 must
	// wake the next DequeueWhile even with a 10s poll.
	if v, ok, err := q.DequeueWhile(func() bool { return true }, 10*time.Second); !ok || err != nil || v != 1 {
		t.Fatalf("first item: got %v %v %v", v, ok, err)
	}
	start := time.Now()
	v, ok, err := q.DequeueWhile(func() bool { return true }, 10*time.Second)
	if !ok || err != nil || v != 2 {
		t.Fatalf("second item: got %v %v %v", v, ok, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("unblocked producer's enqueue did not wake the waiter (took %v)", elapsed)
	}
	if err := <-produced; err != nil {
		t.Fatalf("producer: %v", err)
	}
}

func TestShedNewestDropsOffered(t *testing.T) {
	q := NewWithPolicy[int](2, ShedNewest)
	q.Enqueue(1)
	q.Enqueue(2)
	start := time.Now()
	if err := q.Enqueue(3); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("shed-newest enqueue blocked")
	}
	if q.Shed() != 1 {
		t.Fatalf("shed = %d", q.Shed())
	}
	// Queue contents untouched: oldest work survives.
	if v, _ := q.Dequeue(); v != 1 {
		t.Fatalf("head = %d", v)
	}
	if v, _ := q.Dequeue(); v != 2 {
		t.Fatalf("next = %d", v)
	}
	if q.Enqueued() != 2 {
		t.Fatalf("enqueued = %d (shed items must not count)", q.Enqueued())
	}
}

func TestShedOldestAdmitsFreshest(t *testing.T) {
	q := NewWithPolicy[int](2, ShedOldest)
	q.Enqueue(1)
	q.Enqueue(2)
	if err := q.Enqueue(3); err != nil {
		t.Fatalf("err = %v", err)
	}
	if q.Shed() != 1 {
		t.Fatalf("shed = %d", q.Shed())
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d (occupancy must stay at capacity)", q.Len())
	}
	if v, _ := q.Dequeue(); v != 2 {
		t.Fatalf("head = %d, want 2 (1 was shed)", v)
	}
	if v, _ := q.Dequeue(); v != 3 {
		t.Fatalf("next = %d", v)
	}
}

func TestShedPoliciesNeverBlockProducer(t *testing.T) {
	for _, p := range []OverloadPolicy{ShedOldest, ShedNewest} {
		q := NewWithPolicy[int](1, p)
		done := make(chan struct{})
		go func() {
			for i := 0; i < 1000; i++ {
				q.Enqueue(i)
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%v producer blocked", p)
		}
	}
}

func TestUnboundedNeverSheds(t *testing.T) {
	q := NewWithPolicy[int](0, ShedNewest)
	for i := 0; i < 100; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("err = %v", err)
		}
	}
	if q.Shed() != 0 {
		t.Fatalf("shed = %d", q.Shed())
	}
}

func TestShedAfterCloseStillErrClosed(t *testing.T) {
	q := NewWithPolicy[int](1, ShedNewest)
	q.Enqueue(1)
	q.Close()
	if err := q.Enqueue(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if q.Shed() != 0 {
		t.Fatalf("shed = %d, closed enqueue must not count as shed", q.Shed())
	}
}

func TestOverloadPolicyString(t *testing.T) {
	cases := map[OverloadPolicy]string{
		Block: "block", ShedOldest: "shed-oldest", ShedNewest: "shed-newest",
		OverloadPolicy(42): "invalid",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestDequeueWhileStopsPredicateChange(t *testing.T) {
	q := New[int](0)
	stop := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(stop)
	}()
	_, ok, err := q.DequeueWhile(func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}, 500*time.Microsecond)
	if ok || err != nil {
		t.Fatalf("expected give-up after predicate flips, got ok=%v err=%v", ok, err)
	}
}

// closedDone returns an already-closed done channel.
func closedDone() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func TestDequeueUntilReturnsItemWhenDoneClosed(t *testing.T) {
	q := New[int](0)
	q.Enqueue(7)
	v, ok, err := q.DequeueUntil(closedDone())
	if !ok || err != nil || v != 7 {
		t.Fatalf("a present item must win over a closed done: got %v %v %v", v, ok, err)
	}
}

func TestDequeueUntilGivesUpOnEmptyWhenDoneClosed(t *testing.T) {
	q := New[int](0)
	_, ok, err := q.DequeueUntil(closedDone())
	if ok || err != nil {
		t.Fatalf("expected (zero,false,nil), got ok=%v err=%v", ok, err)
	}
}

func TestDequeueUntilClosedQueue(t *testing.T) {
	q := New[int](0)
	q.Enqueue(1)
	q.Close()
	if v, ok, err := q.DequeueUntil(nil); !ok || err != nil || v != 1 {
		t.Fatalf("drain failed: %v %v %v", v, ok, err)
	}
	// Closed and drained reports ErrClosed, whether or not done is closed.
	for _, done := range []<-chan struct{}{nil, closedDone()} {
		if _, ok, err := q.DequeueUntil(done); ok || !errors.Is(err, ErrClosed) {
			t.Fatalf("closed+drained should return ErrClosed, got ok=%v err=%v", ok, err)
		}
	}
}

// dequeueUntilAsync runs DequeueUntil(done) on its own goroutine and
// returns a channel of its result, so a test can assert the waiter is
// parked before it acts.
type untilResult struct {
	v   int
	ok  bool
	err error
}

func dequeueUntilAsync(q *Queue[int], done <-chan struct{}) <-chan untilResult {
	res := make(chan untilResult, 1)
	go func() {
		v, ok, err := q.DequeueUntil(done)
		res <- untilResult{v, ok, err}
	}()
	return res
}

// parked asserts the waiter has not returned yet (it is blocked, not
// spinning to a premature result).
func parked(t *testing.T, res <-chan untilResult) {
	t.Helper()
	select {
	case r := <-res:
		t.Fatalf("DequeueUntil returned before any wakeup: %+v", r)
	case <-time.After(5 * time.Millisecond):
	}
}

// The three wakeup sources each end the wait on their own; nothing else
// does — there is no timer behind them, so a missed wakeup would hang the
// test rather than be papered over.
func TestDequeueUntilWakesOnEnqueue(t *testing.T) {
	q := New[int](0)
	res := dequeueUntilAsync(q, make(chan struct{}))
	parked(t, res)
	q.Enqueue(9)
	if r := <-res; !r.ok || r.err != nil || r.v != 9 {
		t.Fatalf("got %+v", r)
	}
}

func TestDequeueUntilWakesOnClose(t *testing.T) {
	q := New[int](0)
	res := dequeueUntilAsync(q, make(chan struct{}))
	parked(t, res)
	q.Close()
	if r := <-res; r.ok || !errors.Is(r.err, ErrClosed) {
		t.Fatalf("got %+v", r)
	}
}

func TestDequeueUntilWakesOnDone(t *testing.T) {
	q := New[int](0)
	done := make(chan struct{})
	res := dequeueUntilAsync(q, done)
	parked(t, res)
	close(done)
	if r := <-res; r.ok || r.err != nil {
		t.Fatalf("got %+v", r)
	}
	// The give-up claimed nothing.
	q.Enqueue(1)
	if v, ok, _ := q.TryDequeue(); !ok || v != 1 {
		t.Fatalf("item after give-up: %v %v", v, ok)
	}
}

// The bounded counterpart of TestBoundedEnqueueWakesDequeueWhile: the
// enqueue of a producer that had been blocked on a full queue must wake a
// DequeueUntil waiter, which has no poll to fall back on.
func TestDequeueUntilWakesOnBoundedEnqueue(t *testing.T) {
	q := New[int](1)
	if err := q.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	produced := make(chan error, 1)
	go func() {
		produced <- q.Enqueue(2) // blocks: queue is full
	}()
	time.Sleep(5 * time.Millisecond) // let the producer block
	never := make(chan struct{})
	if v, ok, err := q.DequeueUntil(never); !ok || err != nil || v != 1 {
		t.Fatalf("first item: got %v %v %v", v, ok, err)
	}
	if v, ok, err := q.DequeueUntil(never); !ok || err != nil || v != 2 {
		t.Fatalf("second item: got %v %v %v", v, ok, err)
	}
	if err := <-produced; err != nil {
		t.Fatalf("producer: %v", err)
	}
	// And a waiter parked on an empty bounded queue wakes on the next push.
	res := dequeueUntilAsync(q, never)
	parked(t, res)
	if ok, err := q.TryEnqueue(3); !ok || err != nil {
		t.Fatalf("TryEnqueue: %v %v", ok, err)
	}
	if r := <-res; !r.ok || r.err != nil || r.v != 3 {
		t.Fatalf("got %+v", r)
	}
}

func TestDequeueUntilManyWaitersAllDrain(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		q := New[int](capacity)
		const workers, items = 8, 400
		var got atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				never := make(chan struct{})
				for {
					_, ok, err := q.DequeueUntil(never)
					if err != nil {
						return
					}
					if ok {
						got.Add(1)
					}
				}
			}()
		}
		for i := 0; i < items; i++ {
			q.Enqueue(i)
		}
		q.Close()
		wg.Wait()
		if got.Load() != items {
			t.Fatalf("cap %d: drained %d of %d across concurrent DequeueUntil waiters", capacity, got.Load(), items)
		}
	}
}
