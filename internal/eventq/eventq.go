// Package eventq provides an unbounded FIFO queue with channel-based
// notification. The protocol engine uses it to hand events (views, e-view
// changes, message deliveries) to the application without ever blocking the
// protocol goroutine on a slow consumer, and to feed its own event loop.
//
// A plain Go channel cannot serve here: any finite capacity lets a stalled
// application back-pressure the membership protocol, which must keep
// processing failure-detector and network events to stay live.
package eventq

import "sync"

// Queue is an unbounded FIFO of values of type T. The zero value is not
// usable; construct with New. A Queue is safe for concurrent use by
// multiple producers and consumers.
//
// Items live in a ring: buf has a power-of-two length, the n queued
// items start at head and wrap. A push or pop in steady state moves an
// index and allocates nothing; the ring doubles when full.
type Queue[T any] struct {
	mu     sync.Mutex
	buf    []T
	head   int
	n      int
	closed bool
	// notify has capacity 1 and carries "the queue may be non-empty or
	// closed" edge signals to blocked consumers.
	notify chan struct{}
}

// New returns an empty open queue.
func New[T any]() *Queue[T] {
	return &Queue[T]{notify: make(chan struct{}, 1)}
}

// Push appends v to the queue. Pushing to a closed queue is a no-op and
// returns false.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.mu.Unlock()
	q.wake()
	return true
}

// minRing is the ring's first size; keepRing the largest one an emptied
// queue holds on to, so that a burst does not pin its peak for good.
const (
	minRing  = 16
	keepRing = 1024
)

// grow doubles the ring, unwrapping the items to its start.
func (q *Queue[T]) grow() {
	buf := make([]T, max(minRing, 2*len(q.buf)))
	q.copyOut(buf)
	q.buf, q.head = buf, 0
}

// copyOut copies the queued items, in order, to the start of dst.
func (q *Queue[T]) copyOut(dst []T) {
	k := copy(dst, q.buf[q.head:min(q.head+q.n, len(q.buf))])
	copy(dst[k:], q.buf[:q.n-k])
}

// popLocked removes the head; the queue must be non-empty.
func (q *Queue[T]) popLocked() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n == 0 && len(q.buf) > keepRing {
		q.buf, q.head = nil, 0
	}
	return v
}

// TryPop removes and returns the head of the queue. The second result is
// false if the queue was empty.
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.popLocked(), true
}

// Pop blocks until a value is available or the queue is closed and
// drained. The second result is false only in the closed-and-drained case.
func (q *Queue[T]) Pop() (T, bool) {
	for {
		q.mu.Lock()
		if q.n > 0 {
			v := q.popLocked()
			more := q.n > 0
			q.mu.Unlock()
			if more {
				// Pass the wakeup along so that a second blocked
				// consumer is not stranded when two pushes collapsed
				// into one notify token.
				q.wake()
			}
			return v, true
		}
		if q.closed {
			q.mu.Unlock()
			q.wake() // propagate close to other blocked consumers
			var zero T
			return zero, false
		}
		q.mu.Unlock()
		<-q.notify
	}
}

// Wait returns a channel that receives a signal when the queue may have
// become non-empty or closed. Consumers that multiplex several queues with
// select use Wait + TryPop. A signal is a hint, not a guarantee: always
// re-check with TryPop.
func (q *Queue[T]) Wait() <-chan struct{} { return q.notify }

// Len returns the number of queued items. It is O(1) — a mutex
// acquisition and a counter read, never a scan — so the protocol
// loop can sample it on every housekeeping tick as the queue-depth
// health gauge (core.NoteLoopHealth) without affecting
// the tick budget.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Close marks the queue closed. Queued items remain poppable; Pop returns
// false once the queue is drained. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Drain removes and returns all queued items.
func (q *Queue[T]) Drain() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil
	}
	out := make([]T, q.n)
	q.copyOut(out)
	q.buf, q.head, q.n = nil, 0, 0
	return out
}

func (q *Queue[T]) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}
