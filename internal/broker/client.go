package broker

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// Client is a TCP connection to a Broker.
type Client struct {
	conn net.Conn
	w    *wire.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *frame
	// pendingSubs maps an in-flight subscribe request to its pre-built sub
	// state. The read loop registers it in subs the instant the broker's ack
	// arrives — before reading the next frame — because on a session resume
	// the broker replays the queued backlog immediately behind that ack, and
	// a message that lands before the subscription is registered would be
	// discarded (then cumulatively acked over: permanent loss).
	pendingSubs map[uint64]*clientSub
	subs        map[int]*clientSub
	// fwds is the in-flight windowed-forward FIFO (ascending IDs). The
	// broker processes a connection's forwards in arrival order, so any
	// response carrying ID k — cumulative subID-0 ack, per-frame ack or
	// error — resolves every forward with ID ≤ k (the ones below k as
	// plain non-dup success). See PublishSeqAsync.
	fwds    []fwdWaiter
	closed  bool
	readErr error

	timeout time.Duration
	done    chan struct{}
	closing chan struct{} // closed by Close before the conn drops

	// topics interns the topics of frames read from the broker; only
	// readLoop touches it.
	topics wire.Interner

	// replies holds Request's reply subscriptions by response topic. Each
	// is made by the topic's first call and lives as long as the
	// connection.
	replies map[string]*replySub
}

// clientSub is the client side of one subscription. For acked sessions the
// client dedups redeliveries by sequence and never drops: a full consumer
// channel backpressures the read loop instead.
type clientSub struct {
	ch      chan Message
	acked   bool
	lastSeq uint64 // highest seq handed to the consumer

	// reply marks a Request reply subscription. The read loop queues a
	// message on it only while a call waits (waiting) and only if that
	// call's match accepts it, and then ends the wait, so the one-slot
	// channel never holds a reply that is not the waiting call's. wait
	// numbers the waits. The three change under mu.
	reply   bool
	waiting bool
	wait    uint64
	match   func(payload []byte) bool
}

// replySub is Request's state for one response topic. call serializes the
// topic's calls, so at most one waits for a reply at a time.
type replySub struct {
	call sync.Mutex
	st   *clientSub // nil until a call's subscribe is acknowledged
}

// fwdWaiter is one in-flight windowed forward awaiting the broker's
// cumulative or per-frame response.
type fwdWaiter struct {
	id   uint64
	done func(dup bool, err error)
}

// errFwdConnLost marks forward completions failed by connection loss rather
// than by a broker response — the only class an Outbox replays (the broker
// either never saw the frame or its ack was lost; either way the owner's
// publisher-dedup high-water mark makes a resend idempotent).
var errFwdConnLost = errors.New("connection lost before the forward was acknowledged")

// DialClient connects to a broker at addr.
func DialClient(addr string) (*Client, error) {
	return DialClientTimeout(addr, 5*time.Second)
}

// DialClientTimeout connects with an explicit timeout used for dialing and
// for each request/ack round trip; zero or less means 5 seconds.
func DialClientTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("broker client: dial %s: %w", addr, err)
	}
	return NewClientConn(conn, timeout), nil
}

// NewClientConn wraps an already-established connection to a broker. The
// path for callers that dial through an interposer — federation bridge
// links dial through the fault injector so a chaos schedule can drop or
// delay bridge frames like any other link. A timeout of zero or less
// means 5 seconds.
func NewClientConn(conn net.Conn, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := &Client{
		conn:        conn,
		w:           wire.NewWriter(conn),
		pending:     map[uint64]chan *frame{},
		pendingSubs: map[uint64]*clientSub{},
		subs:        map[int]*clientSub{},
		replies:     map[string]*replySub{},
		timeout:     timeout,
		done:        make(chan struct{}),
		closing:     make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Err reports the connection's terminal state: nil while the connection is
// usable, otherwise the read or write error that killed it (or a closed
// marker). Components use this as their broker-liveness signal.
func (c *Client) Err() error {
	c.mu.Lock()
	readErr, closed := c.readErr, c.closed
	c.mu.Unlock()
	if readErr != nil {
		return fmt.Errorf("broker client: connection lost: %w", readErr)
	}
	if closed {
		return errors.New("broker client: closed")
	}
	// A half-dead connection can fail writes long before the read side
	// notices; the writer's sticky error is the earliest signal.
	if err := c.w.Err(); err != nil {
		return fmt.Errorf("broker client: connection lost: %w", err)
	}
	return nil
}

// Done is closed when the connection is no longer being read — after
// Close or a read error. Reconnect loops select on it instead of polling
// Err.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close drops the connection; subscription channels close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closing)
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	r := wire.NewReader(c.conn)
	// Cumulative forward acknowledgements ride frame headers on subID 0
	// (real subscriptions start at 1): ack seq k means every windowed
	// forward with ID ≤ k was accepted without incident. Completions are
	// invoked outside c.mu — outbox callbacks take their own locks.
	r.OnAck = func(subID int, seq uint64) {
		if subID != 0 {
			return
		}
		for _, wt := range c.takeFwds(seq) {
			wt.done(false, nil)
		}
	}
	// The hot path (opMsg pushes) decodes into one reused frame struct —
	// Message below copies the string/slice headers out, so the struct
	// itself never escapes. Response frames are copied fresh because
	// roundTrip waiters hold them past this iteration.
	var fr frame
	for {
		fr = frame{topics: &c.topics}
		f := &fr
		if err := r.ReadFrame(f); err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			for id, st := range c.subs {
				close(st.ch)
				delete(c.subs, id)
			}
			for id := range c.pendingSubs {
				delete(c.pendingSubs, id)
			}
			fwds := c.fwds
			c.fwds = nil
			c.mu.Unlock()
			// Fail in-flight forwards in FIFO order, after the lock drops.
			for _, wt := range fwds {
				wt.done(false, fmt.Errorf("broker client: %w: %v", errFwdConnLost, err))
			}
			return
		}
		if f.Op == opMsg {
			// Deliver under the lock so Unsubscribe cannot close the
			// channel mid-send (drop-oldest for slow consumers).
			c.mu.Lock()
			if st := c.subs[f.SubID]; st != nil && (!st.reply || c.takeReply(st, f.Payload)) {
				msg := Message{Topic: f.Topic, Payload: f.Payload, Retained: f.Retain, Seq: f.Seq}
				if st.acked {
					c.mu.Unlock()
					c.deliverAcked(f.SubID, st, msg)
					continue
				}
				select {
				case st.ch <- msg:
				default:
					select {
					case <-st.ch:
					default:
					}
					select {
					case st.ch <- msg:
					default:
					}
				}
			}
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		if st, ok := c.pendingSubs[f.ID]; ok {
			delete(c.pendingSubs, f.ID)
			if f.Op == opAck && f.SubID != 0 {
				c.subs[f.SubID] = st
			}
		}
		ch := c.pending[f.ID]
		delete(c.pending, f.ID)
		// A per-frame response for an in-flight forward: the exceptional
		// path of the cumulative protocol (dup or error). It also resolves
		// every forward below it as plain success — the broker answered
		// them cumulatively or not at all, and it processes one
		// connection's forwards strictly in order.
		var fwdPrefix []fwdWaiter
		var fwdSelf *fwdWaiter
		if ch == nil && len(c.fwds) > 0 && c.fwds[0].id <= f.ID &&
			(f.Op == opAck || f.Op == opErr) {
			fwdPrefix = c.popFwdsLocked(f.ID - 1)
			if len(c.fwds) > 0 && c.fwds[0].id == f.ID {
				wt := c.fwds[0]
				c.fwds = c.fwds[1:]
				fwdSelf = &wt
			}
		}
		c.mu.Unlock()
		for _, wt := range fwdPrefix {
			wt.done(false, nil)
		}
		if fwdSelf != nil {
			if f.Op == opErr {
				fwdSelf.done(false, fmt.Errorf("broker: %s", f.Error))
			} else {
				fwdSelf.done(f.Acked, nil)
			}
			continue
		}
		if ch != nil {
			resp := fr // waiters hold the response past this iteration
			ch <- &resp
			close(ch)
		}
	}
}

// takeReply reports whether payload answers the call waiting on the reply
// subscription st, and if so ends the wait. The call's match is the
// caller's code, so it runs without mu; a wait that ended or was replaced
// by the next call meanwhile takes nothing. Called, and returns, with mu
// held, on the read loop: the only goroutine that queues on st.ch.
func (c *Client) takeReply(st *clientSub, payload []byte) bool {
	if !st.waiting {
		return false
	}
	if match := st.match; match != nil {
		wait := st.wait
		c.mu.Unlock()
		ok := match(payload)
		c.mu.Lock()
		if !ok || !st.waiting || st.wait != wait {
			return false
		}
	}
	st.waiting = false
	return true
}

// takeFwds pops and returns the in-flight forwards with ID ≤ upTo.
func (c *Client) takeFwds(upTo uint64) []fwdWaiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.popFwdsLocked(upTo)
}

func (c *Client) popFwdsLocked(upTo uint64) []fwdWaiter {
	n := 0
	for n < len(c.fwds) && c.fwds[n].id <= upTo {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]fwdWaiter, n)
	copy(out, c.fwds)
	c.fwds = c.fwds[n:]
	if len(c.fwds) == 0 {
		c.fwds = nil
	}
	return out
}

// roundTrip sends a request frame and waits for its response. A non-nil sub
// is staged in pendingSubs so the read loop can register it atomically with
// the subscribe ack (see the pendingSubs field comment).
func (c *Client) roundTrip(f *frame, sub *clientSub) (*frame, error) {
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		// The read loop closes the waiters it finds as it exits; one
		// registered after that would wait out the whole timeout.
		c.mu.Unlock()
		return nil, c.Err()
	}
	c.nextID++
	f.ID = c.nextID
	ch := make(chan *frame, 1)
	c.pending[f.ID] = ch
	if sub != nil {
		c.pendingSubs[f.ID] = sub
	}
	c.mu.Unlock()

	if err := c.w.WriteFrame(f); err != nil {
		c.mu.Lock()
		delete(c.pending, f.ID)
		delete(c.pendingSubs, f.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("broker client: send: %w", err)
	}
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("broker client: connection lost: %v", c.readErr)
		}
		if resp.Op == opErr {
			return nil, fmt.Errorf("broker: %s", resp.Error)
		}
		return resp, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, f.ID)
		delete(c.pendingSubs, f.ID)
		c.mu.Unlock()
		// The response may have raced the timer: the read loop buffers it
		// (and may already have registered a staged sub) before we got here.
		// Prefer it over reporting a timeout, so the caller's view and the
		// client's sub table cannot diverge.
		select {
		case resp, ok := <-ch:
			if ok {
				if resp.Op == opErr {
					return nil, fmt.Errorf("broker: %s", resp.Error)
				}
				return resp, nil
			}
		default:
		}
		return nil, fmt.Errorf("broker client: %s timed out after %v", f.Op, c.timeout)
	}
}

// deliverAcked hands an acked message to the consumer, deduping
// redeliveries by sequence. A full channel blocks (with the lock released)
// rather than drops — on the acked path losing a message here would defeat
// the broker's redelivery guarantee.
func (c *Client) deliverAcked(subID int, st *clientSub, msg Message) {
	for {
		c.mu.Lock()
		if c.closed || c.readErr != nil || c.subs[subID] != st {
			c.mu.Unlock()
			return
		}
		if msg.Seq <= st.lastSeq {
			c.mu.Unlock()
			return
		}
		select {
		case st.ch <- msg:
			st.lastSeq = msg.Seq
			c.mu.Unlock()
			return
		default:
		}
		c.mu.Unlock()
		select {
		case <-c.closing:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// Publish sends payload to a topic.
func (c *Client) Publish(topic string, payload []byte, retain bool) error {
	_, err := c.roundTrip(&frame{Op: opPub, Topic: topic, Payload: payload, Retain: retain}, nil)
	return err
}

// PublishAsync queues a fire-and-forget publish: it returns once the frame
// is staged with the coalescing writer and never waits for the broker's
// ack (the broker suppresses it). Pipelined publishers use it to keep many
// messages in flight over one connection; delivery failures surface as the
// connection's sticky write error (here, on Err, or on the next call).
// The topic is validated locally since no error frame will come back.
func (c *Client) PublishAsync(topic string, payload []byte, retain bool) error {
	if topic == "" || strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("broker client: invalid publish topic %q", topic)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("broker client: closed")
	}
	c.mu.Unlock()
	// WriteFrame encodes synchronously, so the frame can go straight back
	// to the pool — keeps the fire-and-forget path allocation-free.
	f := pubFramePool.Get().(*frame)
	*f = frame{Op: opPub, Topic: topic, Payload: payload, Retain: retain, NoAck: true}
	err := c.w.WriteFrame(f)
	*f = frame{}
	pubFramePool.Put(f)
	if err != nil {
		return fmt.Errorf("broker client: publish: %w", err)
	}
	return nil
}

var pubFramePool = sync.Pool{New: func() any { return new(frame) }}

// PublishSeq publishes with publisher-side dedup: retrying an uncertain
// publish (timeout, dropped conn) with the same session and seq is
// idempotent — the broker acknowledges without delivering twice. It reports
// whether the broker had already seen the sequence.
func (c *Client) PublishSeq(topic string, payload []byte, retain bool, session string, seq uint64) (bool, error) {
	resp, err := c.roundTrip(&frame{Op: opPub, Topic: topic, Payload: payload, Retain: retain, Session: session, Seq: seq}, nil)
	if err != nil {
		return false, err
	}
	return resp.Acked, nil
}

// PublishSeqAsync stages a windowed forward publish: the frame carries the
// origin (session, seq) for owner-side dedup plus the Fwd mark asking the
// broker to acknowledge through the cumulative subID-0 ack channel instead
// of one response frame per publish. done is invoked exactly once — with
// the broker's result, or with an error wrapping errFwdConnLost if the
// connection dies first — on the client's read-loop goroutine, so it must
// not block on this connection's traffic. Callers keep many of these in
// flight over one connection; Outbox is the intended user and bounds the
// window itself. Calls must not race each other: the cumulative protocol
// needs wire order to match ID order, which the registration-and-send under
// one lock below guarantees per call, and the outbox's single sender
// goroutine guarantees across calls.
func (c *Client) PublishSeqAsync(topic string, payload []byte, retain bool, session string, seq uint64, done func(dup bool, err error)) error {
	if topic == "" || strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("broker client: invalid publish topic %q", topic)
	}
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		c.mu.Unlock()
		return fmt.Errorf("broker client: %w: send after close", errFwdConnLost)
	}
	c.nextID++
	id := c.nextID
	c.fwds = append(c.fwds, fwdWaiter{id: id, done: done})
	// The send happens under the same lock that allocated the ID so the
	// frame hits the writer in ID order. The coalescing writer stages
	// without waiting on the peer, so the hold is bounded by the encode
	// (plus writer backpressure if megabytes are already queued).
	err := c.w.WriteFrame(&frame{ID: id, Op: opPub, Topic: topic, Payload: payload, Retain: retain, Session: session, Seq: seq, Fwd: true})
	if err != nil {
		c.fwds = c.fwds[:len(c.fwds)-1] // the frame never left; unregister
		c.mu.Unlock()
		return fmt.Errorf("broker client: forward: %w: %v", errFwdConnLost, err)
	}
	c.mu.Unlock()
	return nil
}

// Subscribe registers a topic filter; messages arrive on the returned
// channel until Unsubscribe or connection loss.
func (c *Client) Subscribe(filter string) (int, <-chan Message, error) {
	return c.subscribe(&frame{Op: opSub, Topic: filter}, &clientSub{ch: make(chan Message, clientSubDepth)})
}

// SubscribeSession opens (or resumes) an acked at-least-once session.
// fromSeq is the consumer's last fully processed sequence: the broker
// treats everything at or below it as acknowledged, and the client drops
// redeliveries at or below it. Each message on the channel carries its Seq;
// the consumer must Ack after processing or delivery stalls at the window.
func (c *Client) SubscribeSession(filter, session string, fromSeq uint64) (int, <-chan Message, error) {
	return c.subscribe(&frame{Op: opSub, Topic: filter, Acked: true, Session: session, FromSeq: fromSeq},
		&clientSub{ch: make(chan Message, clientSubDepth), acked: true, lastSeq: fromSeq})
}

// clientSubDepth is the client-side queue of a subscription: a plain one
// sheds its oldest message beyond it, an acked one backpressures the read
// loop. A window's worth, so a consumer that falls a window behind costs
// the connection nothing.
const clientSubDepth = 256

// subscribe sends the subscribe request f for the client side st.
func (c *Client) subscribe(f *frame, st *clientSub) (int, <-chan Message, error) {
	// The sub state is built up front and registered by the read loop
	// together with the broker's ack: an acked-session resume replays the
	// queued backlog immediately behind that ack, and registering here —
	// after roundTrip returns — would race those replayed frames.
	resp, err := c.roundTrip(f, st)
	if err != nil {
		return 0, nil, err
	}
	return resp.SubID, st.ch, nil
}

// Ack cumulatively acknowledges every sequence up to and including seq on
// an acked subscription. Fire-and-forget: the broker does not reply, and a
// lost ack only costs a redelivery the client dedups. The ack is staged
// with the writer — coalesced per subscription and piggybacked on the next
// outgoing frame's header — so a fast consumer stops paying a full frame
// per window advance.
func (c *Client) Ack(subID int, seq uint64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("broker client: closed")
	}
	c.mu.Unlock()
	if err := c.w.QueueAck(subID, seq); err != nil {
		return fmt.Errorf("broker client: ack: %w", err)
	}
	return nil
}

// Unsubscribe cancels a subscription.
func (c *Client) Unsubscribe(id int) error {
	_, err := c.roundTrip(&frame{Op: opUnsub, SubID: id}, nil)
	c.mu.Lock()
	if st, ok := c.subs[id]; ok {
		delete(c.subs, id)
		close(st.ch)
	}
	c.mu.Unlock()
	return err
}

// Request publishes payload to reqTopic and waits up to timeout for one
// reply on respTopic that match accepts (any reply when match is nil) —
// the request/reply convention of machine services, MQTT 5's response
// topic with the correlation kept in the payload.
//
// The first call on a respTopic subscribes to it, one round trip, and the
// subscription stays until the connection ends. Every later call is one
// fire-and-forget publish out and the reply in: no subscribe, publish ack
// or unsubscribe. Calls on one respTopic are serialized. A reply reaches
// the waiting call only if match accepts it; anything else — a reply to
// another client's call on the same service, or one to this client's own
// earlier call that timed out — is dropped before it can take the slot,
// so the call keeps waiting for its own until the deadline. match runs on
// the connection's read goroutine, which reads nothing else meanwhile, so
// it must be quick. Without match a late reply to an earlier timed-out
// call is indistinguishable from this call's.
//
// A connection that is already lost fails the call at once; one lost
// while the call waits fails it when the loss is noticed.
func (c *Client) Request(reqTopic, respTopic string, payload []byte, match func(reply []byte) bool, timeout time.Duration) ([]byte, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	rs := c.replies[respTopic]
	if rs == nil {
		rs = &replySub{}
		c.replies[respTopic] = rs
	}
	c.mu.Unlock()

	rs.call.Lock()
	defer rs.call.Unlock()
	if rs.st == nil {
		st := &clientSub{ch: make(chan Message, 1), reply: true}
		if _, _, err := c.subscribe(&frame{Op: opSub, Topic: respTopic}, st); err != nil {
			return nil, err
		}
		rs.st = st
	}
	// A connection lost from here on closes st.ch, which ends the wait
	// below at once.
	st := rs.st
	c.mu.Lock()
	// A reply an earlier call left behind (accepted as that call gave up
	// on a failed publish) is not this call's.
	select {
	case <-st.ch:
	default:
	}
	st.waiting, st.match = true, match
	st.wait++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		st.waiting, st.match = false, nil
		c.mu.Unlock()
	}()

	if err := c.PublishAsync(reqTopic, payload, false); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m, ok := <-st.ch:
		if !ok {
			return nil, errors.New("broker client: connection lost awaiting reply")
		}
		return m.Payload, nil
	case <-timer.C:
		// The reply may have been queued as the deadline passed.
		c.mu.Lock()
		st.waiting = false
		c.mu.Unlock()
		select {
		case m, ok := <-st.ch:
			if ok {
				return m.Payload, nil
			}
		default:
		}
		return nil, fmt.Errorf("broker client: no reply on %s after %v", respTopic, timeout)
	}
}
