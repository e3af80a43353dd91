package broker

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// fwdWindow bounds an outbox's in-flight entries. It matches the acked
// sessions' delivery window: deep enough to hide a link round trip at
// federated publish rates, small enough that a dead broker parks at most
// one window of payloads per outbox.
const fwdWindow = 256

// OutboxStats counts an outbox's traffic over its lifetime.
type OutboxStats struct {
	Acked    uint64 // entries the broker acknowledged (duplicates included)
	Failed   uint64 // entries completed with an error, or refused after Close
	InFlight uint64 // entries submitted and not yet completed
	Stalls   uint64 // submissions that found the window full
	Replayed uint64 // entries re-sent after a connection loss
}

// Outbox is the reliable publisher into a broker: a window of publishes
// over one redialed connection, completed by the broker's cumulative ack
// and replayed after a connection loss. The federation uplinks forward
// through one each, and so does the campaign ledger.
//
// Entries go on the wire in submission order, on every connection, so the
// broker's per-session (session, seq) high-water mark sees each session's
// seqs ascending; that holds only if each session submits from one
// goroutine. When a connection dies, every sessioned entry it left
// unacknowledged is re-sent, in order, on the next one, and the high-water
// mark drops whatever the dead connection did deliver. Sessionless entries
// carry no dedup identity: they fail with errFwdConnLost instead, so an
// outage never turns an at-most-once publish into a duplicate.
type Outbox struct {
	name    string // prefixes every error an entry completes with
	dial    func() (*Client, error)
	backoff resilience.Backoff

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	space     *sync.Cond     // a window slot freed: wakes one submitter
	settled   *sync.Cond     // an entry completed, or a Flush timer fired
	c         *Client        // the live connection; nil while down
	dead      []*Client      // retired connections the sender has yet to close
	q         []*outboxEntry // unfinished entries, in submission order
	next      int            // q[:next] has been offered to c
	submitted uint64
	firstFail uint64 // lowest submission number completed with an error
	redials   int    // dials since the last ack: each failed, or its connection carried no ack
	closed    bool
	stats     OutboxStats
}

// outboxEntry is one publish in the window. c, sent and finished are
// guarded by the outbox's mutex.
type outboxEntry struct {
	topic   string
	payload []byte
	retain  bool
	session string
	seq     uint64
	done    func(dup bool, err error)
	n       uint64 // submission number, from 1

	c        *Client // the connection it is staged on; nil while unstaged
	sent     bool    // written to some connection (a restage is a replay)
	finished bool    // done has been called
}

// NewOutbox starts an outbox whose sender goroutine connects through dial,
// first when an entry is submitted and again after every connection loss,
// pausing as backoff says before each dial that follows a failed one or a
// connection lost before it carried an ack. name says in its errors which
// publisher failed.
func NewOutbox(name string, dial func() (*Client, error), backoff resilience.Backoff) *Outbox {
	o := &Outbox{
		name:    name,
		dial:    dial,
		backoff: backoff,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	o.space = sync.NewCond(&o.mu)
	o.settled = sync.NewCond(&o.mu)
	go o.run()
	return o
}

// Submit queues a publish and returns; done fires once, with the broker's
// result or the error that ended the entry, on a goroutine of the outbox or
// of its connection (on the caller's after Close), so it must not block. A
// full window blocks Submit until an entry completes. The payload belongs
// to the outbox until done fires: a replay sends it again.
func (o *Outbox) Submit(topic string, payload []byte, retain bool, session string, seq uint64, done func(dup bool, err error)) {
	o.mu.Lock()
	if len(o.q) >= fwdWindow && !o.closed {
		o.stats.Stalls++
		for len(o.q) >= fwdWindow && !o.closed {
			o.space.Wait()
		}
	}
	if o.closed {
		o.stats.Failed++
		o.mu.Unlock()
		done(false, fmt.Errorf("%s: %w", o.name, errClosed))
		return
	}
	o.submitted++
	o.q = append(o.q, &outboxEntry{topic: topic, payload: payload, retain: retain,
		session: session, seq: seq, done: done, n: o.submitted})
	o.mu.Unlock()
	o.kick()
}

func (o *Outbox) kick() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// Flush returns nil once every entry submitted before the call has a
// broker ack. It returns an error as soon as one of them has failed, or
// when timeout passes first; the entries stay in the outbox either way.
// Their done callbacks may still be running when Flush returns; Close
// returns only after they have.
func (o *Outbox) Flush(timeout time.Duration) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	target := o.submitted
	expired := false
	t := time.AfterFunc(timeout, func() {
		o.mu.Lock()
		expired = true
		o.settled.Broadcast()
		o.mu.Unlock()
	})
	defer t.Stop()
	failed := func() bool { return o.firstFail != 0 && o.firstFail <= target }
	pending := func() bool { return len(o.q) > 0 && o.q[0].n <= target }
	for pending() && !failed() && !expired {
		o.settled.Wait()
	}
	switch {
	case failed():
		return fmt.Errorf("%s: entry %d of %d failed", o.name, o.firstFail, target)
	case pending():
		return fmt.Errorf("%s: entry %d of %d unacknowledged after %v", o.name, o.q[0].n, target, timeout)
	}
	return nil
}

// Stats returns the outbox's counters.
func (o *Outbox) Stats() OutboxStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.stats
	st.InFlight = uint64(len(o.q))
	return st
}

// Close stops the sender, drops its connections and fails every entry
// still in the outbox with errClosed; later submissions fail at once.
func (o *Outbox) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		<-o.done
		return
	}
	o.closed = true
	o.space.Broadcast()
	o.mu.Unlock()
	close(o.stop)
	<-o.done

	o.mu.Lock()
	conns := o.dead
	if o.c != nil {
		conns = append(conns, o.c)
	}
	o.c, o.dead = nil, nil
	o.mu.Unlock()
	// Closing a connection fails its staged entries through their
	// connection-loss completions, which closed makes final.
	for _, c := range conns {
		c.Close()
	}
	o.mu.Lock()
	rest := slices.Clone(o.q)
	o.mu.Unlock()
	for _, e := range rest {
		o.complete(e, nil, false, errClosed)
	}
}

// run is the sender: the only goroutine that dials, stages and closes
// connections, which is what keeps wire order equal to submission order.
func (o *Outbox) run() {
	defer close(o.done)
	for {
		select {
		case <-o.stop:
			return
		case <-o.wake:
		}
		o.mu.Lock()
		if o.c != nil && o.c.Err() != nil {
			o.retireLocked(o.c)
		}
		o.mu.Unlock()
		for {
			c, e, needConn := o.take()
			if e != nil {
				if err := c.PublishSeqAsync(e.topic, e.payload, e.retain, e.session, e.seq, func(dup bool, err error) {
					o.complete(e, c, dup, err)
				}); err != nil {
					o.complete(e, c, false, err)
				}
				continue
			}
			if !needConn {
				break
			}
			// A listener that accepts and at once drops the connection
			// (a partitioned broker) must not turn this into a tight
			// loop of dials and window replays: only an ack resets the
			// count.
			o.mu.Lock()
			attempt := o.redials
			o.redials++
			o.mu.Unlock()
			if attempt > 0 {
				select {
				case <-o.stop:
					return
				case <-time.After(o.backoff.Delay(attempt - 1)):
				}
			}
			nc, err := o.dial()
			if err != nil {
				o.failUnstaged(fmt.Errorf("%w: %v", errFwdConnLost, err))
				continue
			}
			o.mu.Lock()
			o.c, o.next = nc, 0
			o.mu.Unlock()
		}
	}
}

// take closes the connections retired since the last call and returns the
// next entry to stage on the live connection, marking it staged. With no
// connection it reports whether any entry waits for one.
func (o *Outbox) take() (c *Client, e *outboxEntry, needConn bool) {
	o.mu.Lock()
	dead := o.dead
	o.dead = nil
	c = o.c
	if c == nil {
		needConn = slices.ContainsFunc(o.q, func(e *outboxEntry) bool { return e.c == nil })
	}
	for c != nil && o.next < len(o.q) {
		q := o.q[o.next]
		o.next++
		if q.c != nil {
			continue // sessionless, held by the retired connection that fails it
		}
		q.c = c
		if q.sent {
			o.stats.Replayed++
		}
		q.sent = true
		e = q
		break
	}
	o.mu.Unlock()
	for _, d := range dead {
		d.Close()
	}
	return c, e, needConn
}

// retireLocked takes the live connection c out of service: every sessioned
// entry staged on it is unstaged at once, so the restage that follows sends
// them all in submission order. Unstaging them one completion at a time
// instead would let a restage run in between and send later entries ahead
// of the still-staged ones, which the broker then drops as duplicates.
// Sessionless entries stay with c; its connection-loss completions fail
// them.
func (o *Outbox) retireLocked(c *Client) {
	o.c, o.next = nil, 0
	o.dead = append(o.dead, c)
	for _, e := range o.q {
		if e.c == c && e.session != "" {
			e.c = nil
		}
	}
}

// failUnstaged fails the sessionless entries waiting for a connection
// after a dial failed; sessioned ones wait for the next dial.
func (o *Outbox) failUnstaged(err error) {
	o.mu.Lock()
	var doomed []*outboxEntry
	for _, e := range o.q {
		if e.c == nil && e.session == "" {
			doomed = append(doomed, e)
		}
	}
	o.mu.Unlock()
	for _, e := range doomed {
		o.complete(e, nil, false, err)
	}
}

// complete resolves e with what connection c (nil for none) reports. A
// connection loss on the live connection retires it, and parks a sessioned
// entry for replay; a loss reported by a connection the entry has already
// left is stale. Every other outcome is final. After Close a connection
// loss is final too, as errClosed: the close, not the link, is what ends
// the entry, and a node relaying for a wire publisher answers errClosed by
// dropping that publisher's connection, so the publisher replays it.
func (o *Outbox) complete(e *outboxEntry, c *Client, dup bool, err error) {
	o.mu.Lock()
	if e.finished {
		o.mu.Unlock()
		return
	}
	lost := err != nil && errors.Is(err, errFwdConnLost)
	if lost && o.closed {
		lost, err = false, errClosed
	}
	if lost && c != nil && c == o.c && e.c == c {
		o.retireLocked(c)
	}
	if lost && e.session != "" {
		o.mu.Unlock()
		o.kick()
		return
	}
	e.finished = true
	if i := slices.Index(o.q, e); i >= 0 {
		o.q = slices.Delete(o.q, i, i+1)
		if i < o.next {
			o.next--
		}
	}
	if err != nil {
		o.stats.Failed++
		if o.firstFail == 0 || e.n < o.firstFail {
			o.firstFail = e.n
		}
	} else {
		o.stats.Acked++
		o.redials = 0
	}
	// One slot freed wakes one submitter: a saturated window with many
	// stalled publishers must not wake them all per completion.
	o.space.Signal()
	o.settled.Broadcast()
	o.mu.Unlock()
	if lost {
		o.kick() // the sender redials for what the retired connection left
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", o.name, err)
	}
	e.done(dup, err)
}
