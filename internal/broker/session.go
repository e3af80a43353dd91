package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// This file implements acked (QoS: at-least-once) subscriptions. A plain
// subscription sheds load drop-oldest; an acked subscription instead assigns
// every matched message a per-session monotonic sequence number, keeps it
// queued until the consumer acknowledges it, redelivers on a backoff timer,
// and survives connection loss: the session stays indexed in the trie while
// detached, so messages published during a pod outage queue up and are
// replayed when the pod reattaches with its last-acked sequence. Consumers
// dedup by sequence, so redelivery is idempotent and the end-to-end result
// is effectively exactly-once.

// defaultAckWindow bounds how many unacked messages are in flight to a
// consumer at once.
const defaultAckWindow = 256

// maxAckedBacklog caps the per-session queue of unacked + undelivered
// messages. Beyond it the broker refuses new messages for the session
// (counted in Stats().Refused) rather than grow without bound while a
// consumer is gone for good.
const maxAckedBacklog = 1 << 16

// ackedPaceBacklog is the backlog at which a session with a live consumer
// paces its publishers: a publish that matches it waits for the consumer to
// acknowledge its way back under this depth (awaitRoom). Without it nothing
// couples publishers to consumers — a plant that produces faster than a
// historian or a bridge link drains just queues to maxAckedBacklog and is
// then refused, which for an acked session is loss. A few delivery windows
// keep the consumer's pipe full; a deeper queue only adds latency.
const ackedPaceBacklog = 4 * defaultAckWindow

// ackedPaceWait bounds one such wait. A consumer that acknowledges nothing
// for this long is stalled, not slow: it is not waited for again until its
// next ack, and its session queues up to maxAckedBacklog as a detached one
// does.
const ackedPaceWait = time.Second

// SubOptions configures a subscription's delivery quality.
type SubOptions struct {
	// Acked upgrades the subscription to at-least-once delivery with
	// sequence numbers, a bounded in-flight window and timed redelivery.
	Acked bool
	// Session names the durable session (required when Acked). Resubscribing
	// with the same session resumes it: undelivered messages queued while
	// detached are replayed.
	Session string
	// FromSeq is the consumer's last processed sequence; everything at or
	// below it is treated as acknowledged on (re)attach.
	FromSeq uint64
	// Window bounds unacked messages in flight (default 256).
	Window int
}

// ackState is the at-least-once machinery of one acked subscription,
// guarded by the subscription's mutex.
type ackState struct {
	session string
	window  int
	backoff resilience.Backoff

	// queue holds unacked and undelivered messages; queue[0] carries
	// sequence number base. Invariant: nextSeq == base + len(queue) - 1.
	queue   []Message
	base    uint64 // seq of queue[0]; base-1 is the highest acked seq
	nextSeq uint64 // highest assigned seq
	cursor  uint64 // next seq the pump hands to the consumer

	// timer is the subscription's one redelivery timer, made by the first
	// arm and Reset by every later one. due is the current arm's deadline:
	// a fire that ran after its arm was stopped (and maybe re-armed) finds
	// the timer disarmed or due still ahead, and leaves the cursor alone.
	attempt    int
	timer      *time.Timer
	timerArmed bool
	due        time.Time

	attached bool
	epoch    int // increments per attach/detach; stale pumps exit
	detach   chan struct{}

	// room, when non-nil, has publishers waiting on it in awaitRoom; it is
	// closed (and forgotten) when they should look again. stalled records
	// that such a wait timed out; the next ack clears it.
	room    chan struct{}
	stalled bool
}

// SubscribeOpts registers a filter with explicit delivery options. Without
// Acked it is identical to Subscribe. With Acked, reusing a live session
// name takes the session over (the previous attachment is detached), and
// FromSeq acknowledges everything the consumer already processed.
func (b *Broker) SubscribeOpts(filter string, opts SubOptions) (int, <-chan Message, error) {
	if opts.Acked && opts.Session == "" {
		return 0, nil, errors.New("broker: acked subscription requires a session name")
	}
	return b.subscribe(filter, opts)
}

// newAckState is a new session's machinery, attached, with everything up
// to opts.FromSeq acknowledged.
func newAckState(opts SubOptions, backoff resilience.Backoff) *ackState {
	window := opts.Window
	if window <= 0 {
		window = defaultAckWindow
	}
	return &ackState{
		session:  opts.Session,
		window:   window,
		backoff:  backoff,
		base:     opts.FromSeq + 1,
		nextSeq:  opts.FromSeq,
		cursor:   opts.FromSeq + 1,
		attached: true,
		detach:   make(chan struct{}),
	}
}

// reattach resumes an existing session: FromSeq acts as a cumulative ack,
// delivery restarts from the oldest unacked message, and any previous
// attachment is taken over (its pump exits, its channel closes).
func (b *Broker) reattach(s *subscription, filter string, opts SubOptions) (int, <-chan Message, error) {
	s.mu.Lock()
	a := s.ack
	if s.closed {
		s.mu.Unlock()
		return 0, nil, errClosed
	}
	if s.filter != filter {
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("broker: session %q exists with filter %q, not %q", a.session, s.filter, filter)
	}
	if a.attached {
		// Session takeover: the newest consumer wins, exactly like an MQTT
		// client reconnecting before the broker noticed the old TCP conn die.
		close(a.detach)
	}
	a.ackTo(opts.FromSeq)
	a.stopTimerLocked()
	a.cursor = a.base
	a.attempt = 0
	a.attached = true
	a.epoch++
	epoch := a.epoch
	out := make(chan Message, 32)
	detach := make(chan struct{})
	a.detach = detach
	s.out = out
	s.mu.Unlock()
	go s.pumpAcked(epoch, out, detach)
	s.wakeUp()
	return s.id, out, nil
}

// ackTo applies a cumulative acknowledgement up to seq. Callers hold s.mu.
func (a *ackState) ackTo(seq uint64) {
	if seq < a.base {
		return
	}
	n := seq - a.base + 1
	if n > uint64(len(a.queue)) {
		n = uint64(len(a.queue))
	}
	a.queue = a.queue[n:]
	a.base += n
	if a.cursor < a.base {
		a.cursor = a.base
	}
	if n > 0 {
		a.stalled = false
		if len(a.queue) < ackedPaceBacklog {
			a.releaseRoom()
		}
	}
	// Re-home the slice when the backing array is mostly acked prefix, so a
	// long-lived session doesn't pin every message it ever queued.
	if len(a.queue) == 0 {
		a.queue = nil
	} else if cap(a.queue) > 64 && cap(a.queue) > 4*len(a.queue) {
		a.queue = append([]Message(nil), a.queue...)
	}
}

// releaseRoom wakes the publishers waiting in awaitRoom. Callers hold s.mu.
func (a *ackState) releaseRoom() {
	if a.room != nil {
		close(a.room)
		a.room = nil
	}
}

// awaitRoom holds a publisher back while the session's consumer is attached,
// acknowledging, and ackedPaceBacklog or more behind: the broker's flow
// control. The wait ends when acks make room, when the consumer detaches or
// the session closes (nobody is left to wait for), or after ackedPaceWait.
// The caller then enqueues whatever the outcome; refusal stays
// maxAckedBacklog's job. Callers hold no broker lock: the publisher's
// goroutine is what waits, so on the wire path the publishing connection
// stops being read and its client feels the pace as a slow round trip.
func (s *subscription) awaitRoom() {
	a := s.ack
	var timer *time.Timer
	s.mu.Lock()
	for !s.closed && a.attached && !a.stalled && len(a.queue) >= ackedPaceBacklog {
		if a.room == nil {
			a.room = make(chan struct{})
		}
		room := a.room
		if timer == nil {
			timer = time.NewTimer(ackedPaceWait)
			defer timer.Stop()
		}
		s.mu.Unlock()
		select {
		case <-room:
			s.mu.Lock()
		case <-timer.C:
			s.mu.Lock()
			a.stalled = true
			a.releaseRoom()
		}
	}
	s.mu.Unlock()
}

func (a *ackState) stopTimerLocked() {
	if a.timerArmed && a.timer != nil {
		a.timer.Stop()
	}
	a.timerArmed = false
}

// Ack acknowledges every sequence up to and including seq on an acked
// subscription. Acks are cumulative, so consumers ack once per batch.
func (b *Broker) Ack(id int, seq uint64) {
	b.subMu.Lock()
	s := b.subs[id]
	b.subMu.Unlock()
	if s == nil || s.ack == nil {
		return
	}
	s.mu.Lock()
	a := s.ack
	if seq >= a.base {
		a.ackTo(seq)
		a.attempt = 0
		a.stopTimerLocked()
	}
	s.mu.Unlock()
	// The window may have opened; the pump re-arms redelivery if anything
	// is still in flight.
	s.wakeUp()
}

// Detach disconnects an acked subscription's consumer without ending the
// session: the subscription stays indexed, messages keep queueing, and a
// later SubscribeOpts with the same session resumes delivery. The broker
// side of a connection teardown.
func (b *Broker) Detach(id int) {
	b.detachOwned(id, nil)
}

// detachOwned detaches only when ch still is the session's live consumer
// channel (nil skips the check). A connection tearing down after its session
// was taken over by a newer connection must not detach the new owner.
func (b *Broker) detachOwned(id int, ch <-chan Message) {
	b.subMu.Lock()
	s := b.subs[id]
	b.subMu.Unlock()
	if s == nil || s.ack == nil {
		return
	}
	s.mu.Lock()
	a := s.ack
	if !a.attached || (ch != nil && (<-chan Message)(s.out) != ch) {
		s.mu.Unlock()
		return
	}
	a.attached = false
	a.epoch++
	close(a.detach)
	a.releaseRoom()
	a.stopTimerLocked()
	a.cursor = a.base
	a.attempt = 0
	s.mu.Unlock()
}

// PublishSeq publishes with publisher-side dedup: a (session, seq) pair at
// or below the session's high-water mark is acknowledged without publishing
// again. Publishers that must not lose data republish after an uncertain
// outcome (timeout, dropped conn) with the same seq; the broker makes the
// retry idempotent. An empty session falls back to plain Publish.
//
// On a federated node, a topic owned by another shard forwards to the
// owner carrying the origin (session, seq) verbatim, so the owner's
// high-water mark is the single dedup point no matter which ingress node
// a retry lands on. Forwarding is therefore stateless: an ingress node
// can die mid-retry without widening the dup window.
func (b *Broker) PublishSeq(topic string, payload []byte, retain bool, session string, seq uint64) (dup bool, err error) {
	if b.forward != nil && !b.owns(topic) {
		return b.forward(topic, payload, retain, session, seq)
	}
	return b.publishSeq(topic, payload, retain, session, seq, false)
}

// publishSeqOwned is PublishSeq for wire ingress: the payload is a freshly
// decoded buffer whose ownership transfers to the broker, so publishLocal
// skips the defensive copy it makes for caller-owned slices. Connection
// handlers and bridge republishers (whose payloads are never mutated after
// delivery) use it; everything caller-facing keeps the copying path.
func (b *Broker) publishSeqOwned(topic string, payload []byte, retain bool, session string, seq uint64) (dup bool, err error) {
	if b.forward != nil && !b.owns(topic) {
		return b.forward(topic, payload, retain, session, seq)
	}
	return b.publishSeq(topic, payload, retain, session, seq, true)
}

// publishLocalSeq is PublishSeq without federation routing; bridge links
// use it to republish pulled messages with the bridge session as the
// dedup key. Pulled payloads are fresh decodes never touched again by the
// link, so ownership transfers.
func (b *Broker) publishLocalSeq(topic string, payload []byte, retain bool, session string, seq uint64) (dup bool, err error) {
	return b.publishSeq(topic, payload, retain, session, seq, true)
}

// pubSession is one publisher session's dedup state: the high-water mark
// and the lock that makes check-publish-advance one step for the session.
type pubSession struct {
	mu   sync.Mutex
	last uint64
}

func (b *Broker) publishSeq(topic string, payload []byte, retain bool, session string, seq uint64, owned bool) (dup bool, err error) {
	if session == "" || seq == 0 {
		return false, b.publish(topic, payload, retain, owned)
	}
	// The session's lock is held from the check to the advance. A publisher
	// normally has one connection, but a replaying one (a forward uplink
	// after a redial) can have two for a moment — the broken connection's
	// handler still working through the frames it had buffered beside the
	// new connection's replay of the same ones — and both must not pass
	// the check for one seq.
	b.pubMu.Lock()
	ps := b.pubSeqs[session]
	if ps == nil {
		ps = &pubSession{}
		b.pubSeqs[session] = ps
	}
	b.pubMu.Unlock()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if seq <= ps.last {
		return true, nil
	}
	if err := b.publish(topic, payload, retain, owned); err != nil {
		return false, err
	}
	ps.last = seq
	return false, nil
}

// enqueueAcked queues a matched message on an acked subscription, assigning
// its sequence number. Called from enqueue with the decision already made.
func (s *subscription) enqueueAcked(m Message) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	a := s.ack
	if len(a.queue) >= maxAckedBacklog {
		s.mu.Unlock()
		s.b.refused.Add(1)
		return
	}
	a.nextSeq++
	m.Seq = a.nextSeq
	a.queue = append(a.queue, m)
	s.mu.Unlock()
	s.b.delivered.Add(1)
	s.wakeUp()
}

// pumpAcked drains the session queue to one attachment's consumer channel,
// bounded by the in-flight window, arming the redelivery timer whenever
// messages are in flight. It exits — closing out — when the attachment is
// detached (takeover or connection teardown) or the subscription closes.
func (s *subscription) pumpAcked(epoch int, out chan Message, detach chan struct{}) {
	a := s.ack
	for {
		s.mu.Lock()
		if s.closed || a.epoch != epoch || !a.attached {
			s.mu.Unlock()
			close(out)
			return
		}
		if a.cursor <= a.nextSeq && a.cursor-a.base < uint64(a.window) {
			m := a.queue[a.cursor-a.base]
			m.Seq = a.cursor
			a.cursor++
			s.armRedeliveryLocked()
			s.mu.Unlock()
			select {
			case out <- m:
				continue
			case <-detach:
			case <-s.quit:
			}
			close(out)
			return
		}
		// Nothing deliverable. If messages are in flight and no timer is
		// pending (an ack stopped it), re-arm so a lost ack still redelivers.
		if a.cursor > a.base {
			s.armRedeliveryLocked()
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-detach:
			close(out)
			return
		case <-s.quit:
			close(out)
			return
		}
	}
}

// armRedeliveryLocked schedules a redelivery sweep after the current
// backoff delay, if one is not already pending. Callers hold s.mu. The
// subscription keeps one timer for its life: arming an acked session is
// what every ack that empties the window leads to, so it must not cost a
// timer and a closure each time (TestRedeliveryArmAckAllocatesNothing).
func (s *subscription) armRedeliveryLocked() {
	a := s.ack
	if a.timerArmed {
		return
	}
	a.timerArmed = true
	d := a.backoff.Delay(a.attempt)
	a.due = time.Now().Add(d)
	if a.timer == nil {
		a.timer = time.AfterFunc(d, s.redeliver)
	} else {
		a.timer.Reset(d)
	}
}

// redeliver rewinds the delivery cursor to the oldest unacked message. The
// next attempt's timer backs off exponentially, so a dead consumer costs
// bounded work while a merely-slow one gets its messages again quickly.
// A stale fire returns without touching anything: its arm was stopped by
// an ack, a detach or a reattach (timerArmed false), or stopped and armed
// again, which put due after now. Every arm happens in the pump of the
// current attachment, so an armed timer always belongs to the live epoch.
func (s *subscription) redeliver() {
	s.mu.Lock()
	a := s.ack
	if !a.timerArmed || time.Now().Before(a.due) {
		s.mu.Unlock()
		return
	}
	a.timerArmed = false
	if s.closed || !a.attached || a.cursor <= a.base {
		s.mu.Unlock()
		return
	}
	a.cursor = a.base
	a.attempt++
	s.mu.Unlock()
	s.b.redelivered.Add(1)
	s.wakeUp()
}
