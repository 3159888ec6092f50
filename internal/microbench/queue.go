package microbench

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dope/internal/queue"
)

// The queue suite is the hand-off rung of the layer ladder: what one item
// pays to cross internal/queue, with nothing else of the executive running.
//
//   - QueueSPSC64: one producer, one consumer, a bounded queue of 64 — the
//     shape of every stage-to-stage link. One op is one item: an Enqueue
//     and a Dequeue.
//   - QueuePipe: the benchmark's spin-pipe without its work: producer →
//     queue → one worker → queue → N workers → queue → the consumer, all
//     bounded at 64. One op is one item through all three queues.
//   - QueueUnboundedDequeueWhile: a producer feeding an unbounded work
//     queue that a task drains with DequeueWhile, the polling wait the
//     benchmark's tenants still use.
//   - QueueUnboundedDequeueUntil: the same with DequeueUntil on a done
//     channel, as every app's outer stage waits on Worker.Done.
//
// The bounded cases are gated at 0 allocations and 0 bytes per op.

const queueBenchCap = 64

func runQueueSPSC(b *testing.B) {
	b.ReportAllocs()
	q := queue.New[int](queueBenchCap)
	produced := make(chan struct{})
	b.ResetTimer()
	go func() {
		defer close(produced)
		for i := 0; i < b.N; i++ {
			_ = q.Enqueue(i) // never closed
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := q.Dequeue(); err != nil {
			b.Fatal(err)
		}
	}
	<-produced
}

func runQueuePipe(b *testing.B) {
	b.ReportAllocs()
	workers := max(2, runtime.GOMAXPROCS(0))
	in, mid, out := queue.New[int](queueBenchCap), queue.New[int](queueBenchCap), queue.New[int](queueBenchCap)
	// forward moves items from one queue to the next until from is closed
	// and drained. Each queue is closed by whoever ran its last producer.
	forward := func(from, to *queue.Queue[int]) {
		for {
			v, err := from.Dequeue()
			if err != nil {
				return
			}
			_ = to.Enqueue(v) // closed only after every forwarder into it returned
		}
	}
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			_ = in.Enqueue(i)
		}
		in.Close()
	}()
	go func() {
		forward(in, mid)
		mid.Close()
	}()
	var par sync.WaitGroup
	for w := 0; w < workers; w++ {
		par.Add(1)
		go func() {
			defer par.Done()
			forward(mid, out)
		}()
	}
	go func() {
		par.Wait()
		out.Close()
	}()
	n := 0
	for {
		if _, err := out.Dequeue(); err != nil {
			break
		}
		n++
	}
	if n != b.N {
		b.Fatalf("pipe delivered %d of %d items", n, b.N)
	}
}

// runQueueUnbounded feeds an unbounded queue from a producer and drains it
// with take, the consumer's wait form.
func runQueueUnbounded(b *testing.B, take func(*queue.Queue[int]) (int, bool, error)) {
	b.ReportAllocs()
	q := queue.New[int](0)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			// An open-loop source ahead of its server by a bounded backlog;
			// without the bound the ring would grow to b.N cells.
			for q.Len() >= 1024 {
				runtime.Gosched()
			}
			_ = q.Enqueue(i)
		}
		q.Close()
	}()
	n := 0
	for {
		_, ok, err := take(q)
		if err != nil {
			break
		}
		if ok {
			n++
		}
	}
	if n != b.N {
		b.Fatalf("consumer saw %d of %d items", n, b.N)
	}
}

func runQueueUnboundedDequeueWhile(b *testing.B) {
	always := func() bool { return true }
	runQueueUnbounded(b, func(q *queue.Queue[int]) (int, bool, error) {
		return q.DequeueWhile(always, time.Millisecond)
	})
}

func runQueueUnboundedDequeueUntil(b *testing.B) {
	done := make(chan struct{}) // a worker's Done: never closed here
	runQueueUnbounded(b, func(q *queue.Queue[int]) (int, bool, error) {
		return q.DequeueUntil(done)
	})
}

// Queue runs the queue hand-off suite, five samples per case, and returns
// its results.
func Queue() []Result {
	return measure([]benchCase{
		{"QueueSPSC64", runQueueSPSC},
		{"QueuePipe", runQueuePipe},
		{"QueueUnboundedDequeueWhile", runQueueUnboundedDequeueWhile},
		{"QueueUnboundedDequeueUntil", runQueueUnboundedDequeueUntil},
	}, 5)
}
