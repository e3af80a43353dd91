package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// bridgeLink pulls remote-owned traffic into the local node: one link
// per remote shard, one acked at-least-once session per workcell pulled
// over it. Pulls use the canonical filter factory/+/<workcell>/# — every
// local filter needing that workcell shares the one session, so
// overlapping local filters can never double-pull a message.
//
// The loss story composes from the single-broker session machinery:
// the remote owner queues unacked messages (and keeps queueing while the
// link is severed, because the session stays registered when the
// connection detaches); the link reconnects with backoff, re-resolving
// the owner's address, and reattaches with FromSeq = the highest
// sequence it republished locally, which replays exactly the gap.
// Republishing happens before the ack goes back, and the republish runs
// under publisher-side dedup keyed by the pull session, so a redelivered
// sequence is dropped instead of duplicated. Net effect: a severed,
// flapping or delayed bridge delivers every message exactly once.
type bridgeLink struct {
	n      *Node
	remote int
	name   string // "bridge:s<local>-s<remote>", the fault-injection target

	mu      sync.Mutex
	pulls   map[string]*pullState // live pulls by workcell
	gens    map[string]int        // session incarnation per workcell
	zombies []zombieSession       // ended pulls whose remote session may linger
	client  *Client               // current connection, nil while down

	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// pullState is one workcell's acked pull. filter and session are
// immutable; refs, active and subID are guarded by the link's mutex.
// fromSeq is atomic so the consume hot loop never touches the link mutex
// — bumping it per message used to contend with addPulls/removePulls.
type pullState struct {
	wc      string
	filter  string
	session string

	refs    int
	fromSeq atomic.Uint64 // highest seq republished locally; the reattach point
	active  bool          // subscribed on the current connection
	subID   int
}

// zombieSession records a pull that ended while its remote session could
// not be unsubscribed (link down). The next connection kills it so the
// remote broker does not queue for a consumer that is never coming back.
type zombieSession struct {
	filter  string
	session string
}

func newBridgeLink(n *Node, remote int) *bridgeLink {
	return &bridgeLink{
		n:      n,
		remote: remote,
		name:   fmt.Sprintf("bridge:s%d-s%d", n.shard, remote),
		pulls:  map[string]*pullState{},
		gens:   map[string]int{},
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// addPulls references the given workcells' pulls, creating sessions for
// workcells not yet pulled. Each new pull gets a fresh session
// incarnation: resurrecting an ended session name would collide with the
// local dedup high-water mark left by its previous life and silently
// swallow the new session's messages.
func (l *bridgeLink) addPulls(wcs []string) {
	changed := false
	l.mu.Lock()
	for _, wc := range wcs {
		if p := l.pulls[wc]; p != nil {
			p.refs++
			continue
		}
		l.gens[wc]++
		l.pulls[wc] = &pullState{
			wc:      wc,
			filter:  "factory/+/" + wc + "/#",
			session: fmt.Sprintf("fed/s%d/%s#%d", l.n.shard, wc, l.gens[wc]),
			refs:    1,
		}
		changed = true
	}
	l.mu.Unlock()
	if changed {
		l.wakeUp()
	}
}

// removePulls drops one reference per workcell; a pull nobody references
// unsubscribes its remote session (asynchronously — this runs on
// connection-teardown paths that must not block on a round trip).
func (l *bridgeLink) removePulls(wcs []string) {
	var unsubs []func()
	l.mu.Lock()
	for _, wc := range wcs {
		p := l.pulls[wc]
		if p == nil {
			continue
		}
		if p.refs--; p.refs > 0 {
			continue
		}
		delete(l.pulls, wc)
		if p.active && l.client != nil {
			client, subID := l.client, p.subID
			unsubs = append(unsubs, func() { _ = client.Unsubscribe(subID) })
		} else {
			// No live connection to end the session over; the next one
			// cleans it up.
			l.zombies = append(l.zombies, zombieSession{filter: p.filter, session: p.session})
		}
	}
	l.mu.Unlock()
	if len(unsubs) > 0 {
		// One teardown goroutine for the whole batch: a reconfigure that
		// drops hundreds of filters at once must not burst a goroutine per
		// pull, and the unsubscribe round trips have no ordering needs.
		go func() {
			for _, u := range unsubs {
				u()
			}
		}()
	}
}

func (l *bridgeLink) wakeUp() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *bridgeLink) stopAndWait() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

func (l *bridgeLink) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

func (l *bridgeLink) idle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pulls) == 0 && len(l.zombies) == 0
}

// run is the link's manager loop: dial the remote shard (re-resolving
// its address each time, so a restarted broker pod's new port is found),
// pump until the connection dies, back off, repeat.
func (l *bridgeLink) run() {
	defer close(l.done)
	connected := false
	for attempt := 0; ; attempt++ {
		if l.stopped() {
			return
		}
		if l.idle() {
			select {
			case <-l.stop:
				return
			case <-l.wake:
				continue
			}
		}
		conn, err := l.n.dialLink(l.name, l.remote)
		if err == nil {
			if connected {
				l.n.reconnects.Add(1)
			}
			connected = true
			attempt = -1 // a live connection resets the backoff
			l.pump(NewClientConn(conn, l.n.opts.DialTimeout))
		}
		select {
		case <-l.stop:
			return
		case <-time.After(l.n.opts.ReconnectBackoff.Delay(attempt + 1)):
		}
	}
}

// pump owns one connection: it kills zombie sessions, (re)attaches every
// live pull, and keeps watching for pulls added while connected. It
// returns when the connection dies or the link stops, after every
// consumer goroutine has drained.
func (l *bridgeLink) pump(client *Client) {
	l.mu.Lock()
	l.client = client
	for _, p := range l.pulls {
		p.active = false
	}
	l.mu.Unlock()

	var wg sync.WaitGroup
	defer func() {
		client.Close()
		wg.Wait()
		l.mu.Lock()
		l.client = nil
		l.mu.Unlock()
	}()

	for {
		l.mu.Lock()
		zombies := l.zombies
		l.zombies = nil
		var todo []*pullState
		for _, p := range l.pulls {
			if !p.active {
				todo = append(todo, p)
			}
		}
		l.mu.Unlock()

		// Ending a zombie session: attach with a maximal cumulative ack
		// (discarding the queued backlog instead of replaying it) and
		// unsubscribe, which frees the remote session for good.
		for i, z := range zombies {
			subID, _, err := client.SubscribeSession(z.filter, z.session, ^uint64(0))
			if err == nil {
				err = client.Unsubscribe(subID)
			}
			if err != nil {
				l.mu.Lock()
				l.zombies = append(l.zombies, zombies[i:]...)
				l.mu.Unlock()
				return
			}
		}

		for _, p := range todo {
			subID, ch, err := client.SubscribeSession(p.filter, p.session, p.fromSeq.Load())
			if err != nil {
				return
			}
			l.mu.Lock()
			if l.pulls[p.wc] != p {
				// Removed while we were subscribing; end the session again.
				l.mu.Unlock()
				go func() { _ = client.Unsubscribe(subID) }()
				continue
			}
			p.active, p.subID = true, subID
			l.mu.Unlock()
			wg.Add(1)
			go func(p *pullState, subID int, ch <-chan Message) {
				defer wg.Done()
				l.consume(client, p, subID, ch)
			}(p, subID, ch)
		}

		select {
		case <-l.wake:
		case <-client.Done():
			return
		case <-l.stop:
			return
		}
	}
}

// consume republishes one pull's messages locally, then acks them to the
// remote owner. The order is the loss guarantee: a message is only acked
// once the local broker owns it. Republish runs under the pull session's
// publisher-dedup high-water mark, so a redelivered sequence (lost ack,
// replay overlap after reattach) is counted and dropped, never delivered
// twice.
//
// Acks are cumulative and batched: the loop opportunistically drains
// whatever the owner has in flight, republishes each message, and acks
// once with the batch's highest sequence — the writer coalesces even those into at most one piggybacked header entry
// per flush. A burst therefore costs one ack, not one ack round per
// message, which is what lets the owner's delivery window stream instead
// of lock-stepping on the bridge.
func (l *bridgeLink) consume(client *Client, p *pullState, subID int, ch <-chan Message) {
	for m := range ch {
		batch := 0
		closed := false
		for {
			l.n.bridgeInFlight.Add(1)
			batch++
			dup, err := l.n.Broker.publishLocalSeq(m.Topic, m.Payload, m.Retained, p.session, m.Seq)
			if err != nil {
				l.n.bridgeInFlight.Add(-int64(batch))
				return // local broker closing; the node is going down
			}
			if dup {
				l.n.bridgeDups.Add(1)
			} else {
				l.n.bridgedIn.Add(1)
			}
			// fromSeq is the reattach point; the client dedups per-sub, so
			// sequences on ch are strictly increasing within a connection,
			// but a fresh connection's replay can run behind it.
			for {
				cur := p.fromSeq.Load()
				if m.Seq <= cur || p.fromSeq.CompareAndSwap(cur, m.Seq) {
					break
				}
			}
			// Keep draining whatever is already buffered before acking.
			more, ok, drained := recvNonBlocking(ch)
			if drained {
				break
			}
			if !ok {
				closed = true
				break
			}
			m = more
		}
		_ = client.Ack(subID, p.fromSeq.Load())
		l.n.bridgeInFlight.Add(-int64(batch))
		if closed {
			return
		}
	}
}

// recvNonBlocking receives a message if one is immediately available.
// drained means the channel was empty (but open) at the attempt.
func recvNonBlocking(ch <-chan Message) (m Message, ok, drained bool) {
	select {
	case m, ok = <-ch:
		return m, ok, false
	default:
		return Message{}, false, true
	}
}
