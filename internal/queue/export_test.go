package queue

// TryEnqueue appends item without blocking. It reports false when the queue
// is full, and ErrClosed when closed.
func (q *Queue[T]) TryEnqueue(item T) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, ErrClosed
	}
	if q.tail-q.head >= q.limit {
		return false, nil
	}
	q.pushLocked(item)
	return true, nil
}

// TryDequeue removes and returns the oldest item without blocking. The bool
// reports whether an item was returned; err is ErrClosed only when the queue
// is closed and drained.
func (q *Queue[T]) TryDequeue() (T, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == q.tail {
		var zero T
		if q.closed {
			return zero, false, ErrClosed
		}
		return zero, false, nil
	}
	return q.popLocked(), true, nil
}

// Closed reports whether Close has been called (and not undone by Reopen).
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Enqueued returns the total number of successful Enqueue operations.
func (q *Queue[T]) Enqueued() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tail
}

// Dequeued returns the total number of successful Dequeue operations.
func (q *Queue[T]) Dequeued() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dequeued
}

// SetNowFunc installs a clock for sojourn stamps (nanoseconds since any
// fixed origin; only differences are used). Pass nil to restore the
// monotonic clock. Intended for tests and virtual-time simulations; call
// before the queue is shared between goroutines.
func (q *Queue[T]) SetNowFunc(now func() int64) {
	q.mu.Lock()
	q.nowFn = now
	q.mu.Unlock()
}

// SojournSamples returns how many dequeued items have contributed to
// MeanSojourn.
func (q *Queue[T]) SojournSamples() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sojourn.Count()
}
