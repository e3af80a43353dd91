// Package ring is the bounded drop-oldest FIFO behind every lossy queue of
// the data plane: a broker subscription's backlog and an OPC UA monitored
// item's notification queue.
//
// Memory follows use. A queue starts with no storage, doubles it when a
// push finds it full, and stops growing at its bound; from there a push
// overwrites the oldest element. It never shrinks: a queue that once needed
// n slots is one burst away from needing them again, the storage is at most
// bound elements, and giving it back would put an allocation on a path whose
// steady state has none. A queue that was never pushed to costs its header.
package ring

// Queue is a drop-oldest FIFO of at most Bound elements. It has no lock of
// its own: the owner calls every method, growth included, under the lock
// that already orders its producers and its consumer. The zero value with
// Bound set is an empty queue.
type Queue[T any] struct {
	Bound int // capacity at which Push starts overwriting; at least 1

	buf   []T // storage, len(buf) <= Bound; empty until the first Push
	head  int // index of the oldest element
	count int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.count }

// Push appends v. When the queue already holds Bound elements the oldest is
// overwritten, and Push reports that it dropped one.
func (q *Queue[T]) Push(v T) (dropped bool) {
	if q.count == len(q.buf) {
		if len(q.buf) >= q.Bound {
			q.buf[q.head] = v
			q.head = q.next(q.head)
			return true
		}
		q.grow()
	}
	tail := q.head + q.count
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = v
	q.count++
	return false
}

// Pop removes and returns the oldest element; ok is false on an empty queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero // drop the slot's references
	q.head = q.next(q.head)
	q.count--
	return v, true
}

func (q *Queue[T]) next(i int) int {
	if i++; i == len(q.buf) {
		return 0
	}
	return i
}

// grow doubles the (full) storage, up to Bound, moving the oldest element
// to index 0.
func (q *Queue[T]) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = 2
	}
	if n > q.Bound {
		n = q.Bound
	}
	buf := make([]T, n)
	copied := copy(buf, q.buf[q.head:])
	copy(buf[copied:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
