package opcua

import "github.com/smartfactory/sysml2conf/internal/ring"

// itemQueue is a monitored item's drop-oldest change queue, on either end
// of the connection: the server's Monitor and the client's Subscription
// each keep one per item.
type itemQueue struct {
	queue ring.Queue[DataChange]
	ready bool // on its readyList
}

// readyList is what one subscription's items share, on either end: the
// items that hold changes, in the order they got them, and a one-slot wake
// channel for the subscription's one consumer. It has no lock of its own:
// its owner calls every method under the lock its producer holds
// (AddressSpace.subMu, Client.mu).
type readyList struct {
	items  []*itemQueue
	wake   chan struct{} // cap 1: "items is non-empty"; closed by end
	closed bool
}

func newReadyList() readyList { return readyList{wake: make(chan struct{}, 1)} }

// push queues dc on q, puts q on the list and wakes the consumer. It
// reports whether q shed its oldest change to make room.
func (l *readyList) push(q *itemQueue, dc DataChange) (dropped bool) {
	dropped = q.queue.Push(dc)
	if !q.ready {
		q.ready = true
		l.items = append(l.items, q)
	}
	select {
	case l.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return dropped
}

// take appends every queued change to dst, oldest first per item, and
// empties the list.
func (l *readyList) take(dst []DataChange) []DataChange {
	for _, q := range l.items {
		for {
			dc, ok := q.queue.Pop()
			if !ok {
				break
			}
			dst = append(dst, dc)
		}
		q.ready = false
	}
	clear(l.items)
	l.items = l.items[:0]
	return dst
}

// end closes the wake channel once: the consumer takes what is left and
// sees the end.
func (l *readyList) end() {
	if !l.closed {
		l.closed = true
		close(l.wake)
	}
}
