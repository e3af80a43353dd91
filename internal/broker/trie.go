package broker

import (
	"strings"
	"sync"

	"github.com/smartfactory/sysml2conf/internal/ring"
)

// This file implements the broker's subscription index and per-subscriber
// delivery queues.
//
// The index is a topic-segment trie: each node is one topic level, with a
// map edge per literal segment, one edge for "+" and, per node, the set of
// subscriptions whose filter ends there ("subs") or continues with a
// trailing "#" ("hashSubs"). Matching a publish walks the topic's segments
// once, so the cost is O(topic depth + matches) instead of the former
// O(subscriptions) scan of MatchTopic over every filter.

type trieNode struct {
	children map[string]*trieNode
	plus     *trieNode
	subs     []*subscription // filters terminating exactly at this node
	hashSubs []*subscription // filters terminating with "#" at this level
}

// splitSeg returns the first topic level of rest, the remainder, and
// whether this was the final level.
func splitSeg(rest string) (seg, next string, last bool) {
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i], rest[i+1:], false
	}
	return rest, "", true
}

// add indexes s under its filter. The filter must already have passed
// ValidateFilter (in particular "#" only occurs as the final level).
func (n *trieNode) add(filter string, s *subscription) {
	for {
		seg, next, last := splitSeg(filter)
		if seg == "#" && last {
			n.hashSubs = append(n.hashSubs, s)
			return
		}
		var child *trieNode
		switch {
		case seg == "+":
			if n.plus == nil {
				n.plus = &trieNode{}
			}
			child = n.plus
		default:
			if n.children == nil {
				n.children = map[string]*trieNode{}
			}
			child = n.children[seg]
			if child == nil {
				child = &trieNode{}
				n.children[seg] = child
			}
		}
		if last {
			child.subs = append(child.subs, s)
			return
		}
		n, filter = child, next
	}
}

// remove unindexes subscription id from filter's path, pruning nodes that
// become empty so churny subscribers do not leave the trie growing.
func (n *trieNode) remove(filter string, id int) {
	seg, next, last := splitSeg(filter)
	if seg == "#" && last {
		n.hashSubs = removeSub(n.hashSubs, id)
		return
	}
	var child *trieNode
	if seg == "+" {
		child = n.plus
	} else {
		child = n.children[seg]
	}
	if child == nil {
		return
	}
	if last {
		child.subs = removeSub(child.subs, id)
	} else {
		child.remove(next, id)
	}
	if child.empty() {
		if seg == "+" {
			n.plus = nil
		} else {
			delete(n.children, seg)
		}
	}
}

func (n *trieNode) empty() bool {
	return len(n.subs) == 0 && len(n.hashSubs) == 0 && len(n.children) == 0 && n.plus == nil
}

func removeSub(subs []*subscription, id int) []*subscription {
	for i, s := range subs {
		if s.id == id {
			subs[i] = subs[len(subs)-1]
			subs[len(subs)-1] = nil
			return subs[:len(subs)-1]
		}
	}
	return subs
}

// match appends every subscription whose filter matches topic. It is
// exactly equivalent to filtering all indexed subscriptions with
// MatchTopic(filter, topic) — TestTrieMatchesMatchTopic asserts this over
// randomized filters and topics.
func (n *trieNode) match(topic string, out *[]*subscription) {
	// A trailing "#" matches the remaining levels including none at all
	// (MQTT: "a/#" matches "a"), so hash subscriptions match at every node
	// the topic walk visits.
	*out = append(*out, n.hashSubs...)
	seg, next, last := splitSeg(topic)
	n.step(n.children[seg], next, last, out)
	n.step(n.plus, next, last, out)
}

func (n *trieNode) step(child *trieNode, next string, last bool, out *[]*subscription) {
	if child == nil {
		return
	}
	if last {
		*out = append(*out, child.subs...)
		*out = append(*out, child.hashSubs...)
		return
	}
	child.match(next, out)
}

// matchPool recycles the per-publish slice of matched subscriptions.
var matchPool = sync.Pool{New: func() any {
	s := make([]*subscription, 0, 16)
	return &s
}}

// ---------------------------------------------------------------------------
// Per-subscriber delivery queue

// ringCap bounds each plain subscriber's backlog, matching the former
// channel capacity of 256.
const ringCap = 256

// subscription owns a drop-oldest ring buffer between publishers and the
// consumer-facing channel. Publishers enqueue under the subscription's own
// lock (never a broker-wide one) and a pump goroutine hands messages to the
// out channel, so one slow consumer never stalls a publish.
type subscription struct {
	id     int
	filter string
	b      *Broker

	out  chan Message
	wake chan struct{} // cap 1: "ring non-empty" signal for the pump
	quit chan struct{} // closed by Unsubscribe/Close

	mu sync.Mutex
	// backlog grows with use up to ringCap (internal/ring): a subscription
	// that is never behind — a reply topic, an idle filter — holds a couple
	// of slots or none, not 256. Growth happens under mu, in enqueue.
	backlog ring.Queue[Message]
	closed  bool

	// ack, when non-nil, upgrades the subscription to at-least-once
	// delivery (session.go): the drop-oldest ring is bypassed (and stays
	// empty) in favour of the session queue, and out is replaced per
	// attachment.
	ack *ackState
}

func newSubscription(id int, filter string, b *Broker) *subscription {
	return &subscription{
		id:      id,
		filter:  filter,
		b:       b,
		out:     make(chan Message, 32),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		backlog: ring.Queue[Message]{Bound: ringCap},
	}
}

// enqueue accepts a message for delivery, overwriting the oldest queued
// message when the ring is full. Accepts count as delivered, overwrites as
// dropped — the Stats split chaos soaks assert on. Acked subscriptions
// queue in their session instead of the ring and never overwrite.
func (s *subscription) enqueue(m Message) {
	if s.ack != nil {
		s.enqueueAcked(m)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	dropped := s.backlog.Push(m)
	s.mu.Unlock()
	if dropped {
		s.b.dropped.Add(1)
	}
	s.b.delivered.Add(1)
	s.wakeUp()
}

// wakeUp nudges the pump; the cap-1 channel coalesces bursts.
func (s *subscription) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump drains the ring into the consumer channel. It exits — closing the
// out channel — once the subscription is closed and (if the consumer keeps
// up) the ring is drained, or immediately on quit when the consumer is gone.
func (s *subscription) pump() {
	for {
		s.mu.Lock()
		m, ok := s.backlog.Pop()
		closed := s.closed
		s.mu.Unlock()
		if !ok {
			if closed {
				close(s.out)
				return
			}
			select {
			case <-s.wake:
			case <-s.quit:
			}
			continue
		}
		select {
		case s.out <- m:
		case <-s.quit:
			close(s.out)
			return
		}
	}
}

// close marks the subscription dead and wakes the pump. Idempotent.
func (s *subscription) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ack != nil {
		s.ack.stopTimerLocked()
		s.ack.releaseRoom()
	}
	s.mu.Unlock()
	close(s.quit)
}
