// Package queue is the fixture stub of dope/internal/queue.
package queue

import "time"

type Queue[T any] struct{}

func (q *Queue[T]) Enqueue(item T) error { return nil }

func (q *Queue[T]) Dequeue() (T, error) {
	var zero T
	return zero, nil
}

func (q *Queue[T]) DequeueWhile(keepWaiting func() bool, poll time.Duration) (T, bool, error) {
	var zero T
	return zero, false, nil
}

func (q *Queue[T]) DequeueUntil(done <-chan struct{}) (T, bool, error) {
	var zero T
	return zero, false, nil
}

func New[T any](capacity int) *Queue[T] { return &Queue[T]{} }

func (q *Queue[T]) TryEnqueue(item T) (bool, error) { return true, nil }

func (q *Queue[T]) TryDequeue() (T, bool, error) {
	var zero T
	return zero, true, nil
}

func (q *Queue[T]) Len() int     { return 0 }
func (q *Queue[T]) Close()       {}
func (q *Queue[T]) Reopen()      {}
func (q *Queue[T]) Shed() uint64 { return 0 }
