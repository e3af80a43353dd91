// Package broker implements the central message broker of the
// service-oriented manufacturing architecture: topic-based publish/subscribe
// over TCP with MQTT-style topic filters ("+" single-level and "#"
// multi-level wildcards) and retained messages.
//
// All machinery data flows through the broker: OPC UA client bridges publish
// machine variables to "factory/<area>/<workcell>/<machine>/<variable>"
// topics, the historian subscribes to store them, and machine services are
// invoked over request/reply topic pairs.
//
// The data plane is built for fan-out throughput: subscriptions are indexed
// in one topic-segment trie, so a publish costs O(topic depth + matches)
// under one read lock; the trie and the retained messages share one
// RWMutex, which a publish holds only while it matches (and stores, when it
// retains). Every subscriber owns a drop-oldest ring buffer, so slow
// consumers shed load (counted in Stats) without stalling publishers.
// DESIGN.md §9 covers the architecture.
package broker

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/smartfactory/sysml2conf/internal/resilience"
	"github.com/smartfactory/sysml2conf/internal/wire"
)

// Message is one published datum. Payload is opaque bytes (most components
// exchange JSON, but the broker does not require it). Seq is set only on
// acked subscriptions: the per-session monotonic sequence number consumers
// ack and dedup by.
type Message struct {
	Topic    string `json:"topic"`
	Payload  []byte `json:"payload"`
	Retained bool   `json:"retained,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`

	// enc memoizes the message's shared binary wire encoding (wirecodec.go).
	// Set by the broker at publish time and shared by every fan-out copy;
	// nil on client-side messages.
	enc *msgEnc
}

// MatchTopic reports whether an MQTT-style filter matches a topic.
// "+" matches one level, "#" (final level only) matches the rest.
//
// The broker itself matches through the trie index in trie.go; MatchTopic
// remains the executable specification the trie is property-tested against,
// and serves one-off checks like retained-message replay, which runs it
// against every retained topic on each subscribe. So it walks
// both strings level by level and allocates nothing; FuzzMatchTopic holds
// it to the split-into-levels reference it replaced.
func MatchTopic(filter, topic string) bool {
	topicDone := false // the topic's last level has been matched
	for {
		fseg, frest, fmore := strings.Cut(filter, "/")
		if fseg == "#" {
			return !fmore
		}
		if topicDone {
			return false
		}
		tseg, trest, tmore := strings.Cut(topic, "/")
		if fseg != "+" && fseg != tseg {
			return false
		}
		if !fmore {
			return !tmore
		}
		topicDone = !tmore
		filter, topic = frest, trest
	}
}

// ValidateFilter checks filter syntax: "#" only at the end, no empty filter.
func ValidateFilter(filter string) error {
	if filter == "" {
		return errors.New("broker: empty topic filter")
	}
	for rest, more := filter, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "#" && more {
			return fmt.Errorf("broker: %q: '#' must be the final level", filter)
		}
		if seg != "#" && strings.Contains(seg, "#") || seg != "+" && strings.Contains(seg, "+") {
			return fmt.Errorf("broker: %q: wildcards must occupy a whole level", filter)
		}
	}
	return nil
}

// errClosed refuses work once a broker, a federation node or an outbox has
// begun to shut down. A wire publish refused with it gets no answer: the
// broker drops the connection instead, so the publisher sees a connection
// loss and its outbox re-sends the publish to whatever broker replaces
// this one, where an error reply would have failed it for good.
var errClosed = errors.New("broker: closed")

// Broker is the in-process pub/sub core; Serve exposes it over TCP.
type Broker struct {
	// ListenWrapper, when set before Serve, decorates the TCP listener —
	// the hook the fault-injection layer uses to interpose on broker
	// connections.
	ListenWrapper func(net.Listener) net.Listener

	// RedeliveryBackoff paces unacked-message redelivery on acked
	// subscriptions. Set before the first SubscribeOpts; the zero value
	// gives 100ms initial / 5s cap / factor 2.
	RedeliveryBackoff resilience.Backoff

	// Federation hooks, installed by NewNode before Serve (nil on a
	// standalone broker). owns reports whether a topic is placed on this
	// broker; forward routes a publish for a topic this broker does not
	// own to the owner shard and blocks for the result (in-process
	// callers); forwardAsync stages the same forward into the owner
	// uplink's in-flight window and delivers the result through done —
	// the wire ingress path uses it so a connection's read loop never
	// blocks on a cross-shard round trip. onSubscribe/onUnsubscribe
	// observe filter lifecycle (one call per plain subscription or acked
	// session) so the node can bridge remote shards the local filter
	// needs. All hooks are set before the broker serves traffic and never
	// change.
	owns          func(topic string) bool
	forward       func(topic string, payload []byte, retain bool, session string, seq uint64) (bool, error)
	forwardAsync  func(topic string, payload []byte, retain bool, session string, seq uint64, done func(dup bool, err error))
	onSubscribe   func(filter string)
	onUnsubscribe func(filter string)

	// indexMu guards the subscription trie and the retained messages.
	// Publish read-locks it to match, or write-locks it to store a retained
	// message and match in one step, so a subscriber registering meanwhile
	// gets a retained message either from the replay or from the publish,
	// never from both.
	indexMu  sync.RWMutex
	root     trieNode
	retained map[string]Message

	// subMu guards the id registry, the session registry and close
	// transitions; it is ordered before indexMu (registration, Unsubscribe
	// and Close take subMu, then indexMu). Publish takes only indexMu.
	subMu    sync.Mutex
	subs     map[int]*subscription
	sessions map[string]*subscription // acked sessions by name
	nextSub  int
	closed   atomic.Bool

	// pubMu guards the map of publisher-side dedup high-water marks; each
	// session's mark has a lock of its own (see publishSeq).
	pubMu   sync.Mutex
	pubSeqs map[string]*pubSession

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// counters, read together by Stats
	published   atomic.Uint64
	delivered   atomic.Uint64
	dropped     atomic.Uint64
	redelivered atomic.Uint64
	refused     atomic.Uint64
	liveConns   atomic.Int64 // wire connections currently open (gates msgEnc)
}

// New creates a broker.
func New() *Broker {
	return &Broker{
		retained: map[string]Message{},
		subs:     map[int]*subscription{},
		sessions: map[string]*subscription{},
		pubSeqs:  map[string]*pubSession{},
		conns:    map[net.Conn]struct{}{},
	}
}

// Publish delivers payload to every matching subscriber. When retain is
// true the message is stored and replayed to future subscribers. On a
// federated node, a topic placed on another shard is forwarded to its
// owner instead of (not in addition to) being delivered locally.
func (b *Broker) Publish(topic string, payload []byte, retain bool) error {
	if b.forward != nil && !b.owns(topic) {
		_, err := b.forward(topic, payload, retain, "", 0)
		return err
	}
	return b.publishLocal(topic, payload, retain)
}

// publishLocal delivers payload to every matching local subscriber,
// bypassing federation routing — the path bridge links use to republish
// pulled messages without looping them back across the federation.
//
// The payload is copied only when the message is actually stored or
// delivered: subscriptions are matched through the trie first, so a publish
// nobody listens to costs a trie walk and nothing else.
func (b *Broker) publishLocal(topic string, payload []byte, retain bool) error {
	return b.publish(topic, payload, retain, false)
}

// publish is publishLocal with an ownership bit: when owned is true the
// payload is a freshly decoded (or otherwise never-again-touched) buffer
// that the broker may keep without the defensive copy — the wire ingress
// path decodes every payload into a fresh slice, so copying it again here
// would be pure overhead on the hottest path in the broker.
func (b *Broker) publish(topic string, payload []byte, retain, owned bool) error {
	if topic == "" || strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("broker: invalid publish topic %q", topic)
	}
	if b.closed.Load() {
		return errClosed
	}
	b.published.Add(1)

	matched := matchPool.Get().(*[]*subscription)
	defer func() {
		*matched = (*matched)[:0]
		matchPool.Put(matched)
	}()

	keep := func() []byte {
		if owned {
			return payload
		}
		return append([]byte(nil), payload...)
	}
	// The shared encode-once holder is only worth its allocation while a
	// wire connection is live and might deliver this message; with none,
	// fan-out stays in process and no frame is ever encoded.
	var enc *msgEnc
	if b.liveConns.Load() > 0 {
		enc = &msgEnc{}
	}
	var msg Message
	built := false
	if retain {
		msg = Message{Topic: topic, Payload: keep(), Retained: true, enc: enc}
		built = true
		b.indexMu.Lock()
		if len(payload) == 0 {
			delete(b.retained, topic) // empty retained payload clears
		} else {
			b.retained[topic] = msg
		}
		b.root.match(topic, matched)
		b.indexMu.Unlock()
	} else {
		b.indexMu.RLock()
		b.root.match(topic, matched)
		b.indexMu.RUnlock()
	}

	if len(*matched) == 0 {
		return nil
	}
	if !built {
		msg = Message{Topic: topic, Payload: keep(), Retained: retain, enc: enc}
	}
	for _, s := range *matched {
		if s.ack != nil {
			s.awaitRoom()
		}
		s.enqueue(msg)
	}
	return nil
}

// Subscribe registers a filter; matching messages (and any retained
// messages matching the filter) arrive on the returned channel.
func (b *Broker) Subscribe(filter string) (int, <-chan Message, error) {
	return b.subscribe(filter, SubOptions{})
}

// subscribe is the one registration path of plain subscriptions and acked
// sessions: it validates the filter, resumes an existing acked session
// (reattach), or registers a new subscription, indexes it and replays the
// retained messages its filter matches, all under one hold of the index
// lock.
func (b *Broker) subscribe(filter string, opts SubOptions) (int, <-chan Message, error) {
	if err := ValidateFilter(filter); err != nil {
		return 0, nil, err
	}
	b.subMu.Lock()
	if b.closed.Load() {
		b.subMu.Unlock()
		return 0, nil, errClosed
	}
	if opts.Acked {
		if s := b.sessions[opts.Session]; s != nil {
			b.subMu.Unlock()
			return b.reattach(s, filter, opts)
		}
	}
	b.nextSub++
	s := newSubscription(b.nextSub, filter, b)
	b.subs[s.id] = s
	if opts.Acked {
		s.ack = newAckState(opts, b.RedeliveryBackoff)
		b.sessions[opts.Session] = s
	}
	b.indexMu.Lock()
	b.root.add(filter, s)
	for topic, msg := range b.retained {
		if MatchTopic(filter, topic) {
			s.enqueue(msg)
		}
	}
	b.indexMu.Unlock()
	// Read before subMu is released: from then on a reattach may replace
	// an acked session's channel.
	out := s.out
	if s.ack != nil {
		go s.pumpAcked(0, out, s.ack.detach)
	} else {
		go s.pump()
	}
	b.subMu.Unlock()
	// Outside subMu: the node hook takes its own locks and must never
	// nest inside the broker's registry lock. One call per plain
	// subscription or acked session: a reattach does not fire it, and the
	// matching onUnsubscribe fires when Unsubscribe ends the subscription
	// (a detach keeps it registered, so no hook).
	if b.onSubscribe != nil {
		b.onSubscribe(filter)
	}
	return s.id, out, nil
}

// Unsubscribe cancels a subscription and closes its channel. For an acked
// subscription this ends the session for good — detaching a consumer that
// intends to come back is Detach's job.
func (b *Broker) Unsubscribe(id int) {
	b.subMu.Lock()
	s, ok := b.subs[id]
	if ok {
		delete(b.subs, id)
		if s.ack != nil {
			delete(b.sessions, s.ack.session)
		}
		b.indexMu.Lock()
		b.root.remove(s.filter, id)
		b.indexMu.Unlock()
	}
	b.subMu.Unlock()
	if ok {
		s.close()
		if b.onUnsubscribe != nil {
			b.onUnsubscribe(s.filter)
		}
	}
}

// Stats is a snapshot of a broker's lifetime counters and its live
// subscription count. Delivered counts messages accepted into a
// subscriber's queue, so Delivered - Dropped is a lower bound on the
// messages consumers received.
type Stats struct {
	Published     uint64 // publishes accepted
	Delivered     uint64 // matched messages accepted into a subscriber queue
	Dropped       uint64 // messages a plain subscriber's full ring overwrote
	Redelivered   uint64 // acked redelivery rounds after an ack timeout (benign: consumers dedup)
	Refused       uint64 // messages an acked session refused at its backlog cap (loss)
	Subscriptions int    // live subscriptions, acked sessions included
}

// Stats returns the broker's counters. Zero-loss audits assert
// Refused == 0.
func (b *Broker) Stats() Stats {
	b.subMu.Lock()
	subs := len(b.subs)
	b.subMu.Unlock()
	return Stats{
		Published:     b.published.Load(),
		Delivered:     b.delivered.Load(),
		Dropped:       b.dropped.Load(),
		Redelivered:   b.redelivered.Load(),
		Refused:       b.refused.Load(),
		Subscriptions: subs,
	}
}

// Health reports whether the broker can serve traffic: it must not be
// closed and, once Serve has run, its listener must still be bound.
func (b *Broker) Health() error {
	if b.closed.Load() {
		return errClosed
	}
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.ln == nil {
		return errors.New("broker: not serving")
	}
	return nil
}

// Close shuts the broker down: the TCP listener stops, connections drop,
// and all subscription channels close.
func (b *Broker) Close() error {
	b.subMu.Lock()
	if b.closed.Swap(true) {
		b.subMu.Unlock()
		return nil
	}
	subs := make([]*subscription, 0, len(b.subs))
	for id, s := range b.subs {
		delete(b.subs, id)
		subs = append(subs, s)
	}
	b.sessions = map[string]*subscription{}
	b.indexMu.Lock()
	b.root = trieNode{}
	b.retained = map[string]Message{}
	b.indexMu.Unlock()
	b.subMu.Unlock()
	for _, s := range subs {
		s.close()
	}

	b.connMu.Lock()
	ln := b.ln
	for c := range b.conns {
		c.Close()
	}
	b.connMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	b.wg.Wait()
	return err
}

// ---------------------------------------------------------------------------
// TCP transport

// frame ops
const (
	opPub   = "pub"
	opSub   = "sub"
	opUnsub = "unsub"
	opMsg   = "msg"
	opAck   = "ack"
	opErr   = "err"
)

// frame is the broker's wire message, carried by the shared framing in
// internal/wire (wirecodec.go has its encoding).
type frame struct {
	ID      uint64
	Op      string
	Topic   string
	Payload []byte
	Retain  bool
	SubID   int
	Error   string

	// Acked-delivery fields. On opSub, Acked/Session/FromSeq request an
	// acked session; on opMsg, Seq carries the message's sequence number; on
	// opPub, Session/Seq enable publisher-side dedup of idempotent retries.
	// Consumer acks ride frame headers (wire.Writer.QueueAck), not frames.
	Acked   bool
	Session string
	Seq     uint64
	FromSeq uint64

	// NoAck on opPub requests fire-and-forget: the broker suppresses the
	// ack response.
	NoAck bool
	// Fwd on opPub marks a windowed federation forward: the publishing
	// peer keeps many of these in flight and asks for cumulative
	// acknowledgement — the broker answers the common (accepted, non-dup)
	// case through the subID-0 piggyback ack channel, keyed by the
	// frame's ID, and reserves per-frame ack/err responses for the
	// exceptional results (dup, error).
	Fwd bool

	// topics, when set, is the reading connection's intern table: Topic
	// decodes through it, so a topic the peer sent before is not copied
	// again. Only the goroutine reading that connection decodes with it.
	topics *wire.Interner
}

// Serve starts the TCP listener at addr (port 0 picks a free port).
func (b *Broker) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("broker: listen %s: %w", addr, err)
	}
	if b.ListenWrapper != nil {
		ln = b.ListenWrapper(ln)
	}
	b.connMu.Lock()
	b.ln = ln
	b.connMu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			b.connMu.Lock()
			if b.closed.Load() {
				b.connMu.Unlock()
				conn.Close()
				return
			}
			b.conns[conn] = struct{}{}
			b.connMu.Unlock()
			b.wg.Add(1)
			go b.handleConn(conn)
		}
	}()
	return nil
}

// Addr returns the TCP listen address ("" before Serve).
func (b *Broker) Addr() string {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.ln == nil {
		return ""
	}
	return b.ln.Addr().String()
}

func (b *Broker) handleConn(conn net.Conn) {
	defer b.wg.Done()
	defer func() {
		b.connMu.Lock()
		delete(b.conns, conn)
		b.connMu.Unlock()
		conn.Close()
	}()

	r := wire.NewReader(conn)
	// One coalescing writer per connection: acks and subscription pushes
	// from every pump goroutine batch into shared flushes.
	w := wire.NewWriter(conn)
	send := func(f *frame) error { return w.WriteFrame(f) }

	// mySubs tracks this connection's subscriptions; acked entries keep
	// their consumer channel so teardown can prove it still owns the
	// session. On teardown plain subscriptions end, acked sessions only
	// detach — their queues survive for the consumer's next connection.
	type connSub struct {
		acked bool
		ch    <-chan Message
	}
	mySubs := map[int]connSub{}
	var pumpWG sync.WaitGroup
	b.liveConns.Add(1)
	defer func() {
		b.liveConns.Add(-1)
		for id, cs := range mySubs {
			if cs.acked {
				b.detachOwned(id, cs.ch)
			} else {
				b.Unsubscribe(id)
			}
		}
		pumpWG.Wait()
	}()

	// Consumer acks ride frame headers. mySubs is only touched on this
	// goroutine, and piggybacked acks are delivered on it too (inside
	// ReadFrame), so OnAck needs no locking.
	r.OnAck = func(subID int, seq uint64) {
		if cs, ok := mySubs[subID]; ok && cs.acked {
			b.Ack(subID, seq)
		}
	}

	var topics wire.Interner
	var f frame
	for {
		f = frame{topics: &topics}
		if err := r.ReadFrame(&f); err != nil {
			return
		}
		switch f.Op {
		case opPub:
			if fa := b.forwardAsync; fa != nil && (b.owns == nil || !b.owns(f.Topic)) {
				// Cross-shard publish on a federated ingress node: stage it
				// into the owner uplink's in-flight window instead of holding
				// this read loop for a synchronous round trip. The response
				// (or error) goes back when the owner's ack arrives; the
				// coalescing writer makes the late send safe from any
				// goroutine. f is reused next iteration — capture copies
				// (Topic is immutable, Payload fresh per decode, the struct
				// is not).
				id, noAck := f.ID, f.NoAck
				fa(f.Topic, f.Payload, f.Retain, f.Session, f.Seq, func(dup bool, err error) {
					switch {
					case errors.Is(err, errClosed):
						conn.Close() // see errClosed
					case err != nil:
						_ = send(&frame{ID: id, Op: opErr, Error: err.Error()})
					case !noAck:
						_ = send(&frame{ID: id, Op: opAck, Acked: dup})
					}
				})
				continue
			}
			// The decoded payload is a fresh buffer; ownership transfers.
			dup, err := b.publishSeqOwned(f.Topic, f.Payload, f.Retain, f.Session, f.Seq)
			switch {
			case errors.Is(err, errClosed):
				return // drops the connection; see errClosed
			case err != nil:
				_ = send(&frame{ID: f.ID, Op: opErr, Error: err.Error()})
			case f.Fwd:
				// Windowed forward from a peer shard. The common (accepted,
				// non-dup) result rides the subID-0 cumulative ack channel —
				// coalesced to one max-ID entry per flush and piggybacked on
				// the next outgoing frame's header — so a pipelined uplink
				// pays a handful of bytes per window, not a response frame
				// per forward. A dup keeps its explicit per-frame ack: the
				// cumulative channel can only say "accepted", and the peer
				// resolves every ID below an explicit response as plain
				// success. Ack ordering is safe: an ack queued here can only
				// ride (or follow) frames staged after it, never overtake an
				// earlier explicit response.
				if dup {
					_ = send(&frame{ID: f.ID, Op: opAck, Acked: true})
				} else {
					_ = w.QueueAck(0, f.ID)
				}
			case !f.NoAck:
				_ = send(&frame{ID: f.ID, Op: opAck, Acked: dup})
			}
		case opSub:
			id, ch, err := b.SubscribeOpts(f.Topic, SubOptions{Acked: f.Acked, Session: f.Session, FromSeq: f.FromSeq})
			if err != nil {
				_ = send(&frame{ID: f.ID, Op: opErr, Error: err.Error()})
				continue
			}
			mySubs[id] = connSub{acked: f.Acked, ch: ch}
			_ = send(&frame{ID: f.ID, Op: opAck, SubID: id})
			pumpWG.Add(1)
			go func(id int, ch <-chan Message) {
				defer pumpWG.Done()
				for m := range ch {
					if err := sendMsg(w, id, &m); err != nil {
						return
					}
				}
			}(id, ch)
		case opUnsub:
			if _, ok := mySubs[f.SubID]; ok {
				b.Unsubscribe(f.SubID)
				delete(mySubs, f.SubID)
				_ = send(&frame{ID: f.ID, Op: opAck})
			} else {
				_ = send(&frame{ID: f.ID, Op: opErr, Error: fmt.Sprintf("unknown subscription %d", f.SubID)})
			}
		default:
			_ = send(&frame{ID: f.ID, Op: opErr, Error: fmt.Sprintf("unknown op %q", f.Op)})
		}
	}
}
