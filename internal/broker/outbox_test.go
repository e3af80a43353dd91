package broker

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

const outboxLink = "outbox:test"

// outboxRig is a broker on loopback with an acked consumer recording every
// delivery under outbox/#, and an outbox dialing the broker through a fault
// injector.
type outboxRig struct {
	inj *faultinject.Injector
	brk *Broker
	ob  *Outbox

	mu  sync.Mutex
	got []string // delivered payloads, in delivery order
}

func newOutboxRig(t *testing.T, seed int64) *outboxRig {
	t.Helper()
	r := &outboxRig{inj: faultinject.New(seed), brk: New()}
	if err := r.brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.brk.Close() })
	id, ch, err := r.brk.SubscribeOpts("outbox/#", SubOptions{Acked: true, Session: "outbox-consumer"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for m := range ch {
			r.mu.Lock()
			r.got = append(r.got, string(m.Payload))
			r.mu.Unlock()
			r.brk.Ack(id, m.Seq)
		}
	}()
	r.ob = NewOutbox("outbox", func() (*Client, error) {
		conn, err := r.inj.Dial(outboxLink, r.brk.Addr(), time.Second)
		if err != nil {
			return nil, err
		}
		return NewClientConn(conn, time.Second), nil
	}, resilience.Backoff{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond})
	t.Cleanup(r.ob.Close)
	return r
}

func (r *outboxRig) delivered() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...)
}

// checkSessioned asserts the consumer saw seq-<i> for each i of want,
// exactly once each and in that order.
func (r *outboxRig) checkSessioned(t *testing.T, want []int) {
	t.Helper()
	var seen []string
	for _, p := range r.delivered() {
		if strings.HasPrefix(p, "seq-") {
			seen = append(seen, p)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("consumer saw %d sessioned entries, want %d (loss or duplication)", len(seen), len(want))
	}
	for k, i := range want {
		if w := fmt.Sprintf("seq-%d", i); seen[k] != w {
			t.Fatalf("sessioned delivery %d is %q, want %q", k, seen[k], w)
		}
	}
}

// TestOutboxTruncatedWindowReplaysSessionedOnly truncates the link while a
// full window is in flight: acks are held back by read latency, so the
// write that fills the window is cut mid-frame with every entry before it
// written and unacknowledged. Sessioned entries must then reach the broker
// exactly once and in seq order across the redials, and sessionless ones
// must complete with errFwdConnLost and never be sent again.
func TestOutboxTruncatedWindowReplaysSessionedOnly(t *testing.T) {
	r := newOutboxRig(t, 61)
	r.inj.Set(outboxLink, faultinject.Rule{Latency: time.Second})

	const total = fwdWindow + 16
	sessionless := func(i int) bool { return i <= fwdWindow && i%4 == 1 }
	results := make([]chan error, total+1)
	submit := func(i int) {
		ch := make(chan error, 1)
		results[i] = ch
		done := func(_ bool, err error) { ch <- err }
		if sessionless(i) {
			r.ob.Submit("outbox/free", []byte(fmt.Sprintf("free-%d", i)), false, "", 0, done)
			return
		}
		r.ob.Submit("outbox/seq", []byte(fmt.Sprintf("seq-%d", i)), false, "outbox-pub", uint64(i), done)
	}

	// One entry short of a full window, all written: the broker has
	// delivered them, and their acks wait out the read latency.
	for i := 1; i < fwdWindow; i++ {
		submit(i)
	}
	pollStat(t, 5*time.Second, "the broker to receive the first window", func() bool {
		return len(r.delivered()) == fwdWindow-1
	})
	if st := r.ob.Stats(); st.InFlight != fwdWindow-1 || st.Acked != 0 {
		t.Fatalf("before the cut: %+v, want %d in flight and none acked", st, fwdWindow-1)
	}

	// The write of the entry that fills the window is truncated, and so is
	// every redial's; the entries past the window stall behind it.
	r.inj.Set(outboxLink, faultinject.Rule{Latency: time.Second, TruncateRate: 1})
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := fwdWindow; i <= total; i++ {
			submit(i)
		}
	}()
	pollStat(t, 10*time.Second, "a sessioned entry to replay", func() bool {
		return r.ob.Stats().Replayed >= 1
	})
	for i := 1; i <= fwdWindow; i++ {
		if !sessionless(i) {
			continue
		}
		select {
		case err := <-results[i]:
			if !errors.Is(err, errFwdConnLost) {
				t.Fatalf("sessionless entry %d completed with %v, want errFwdConnLost", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("sessionless entry %d never completed", i)
		}
	}

	r.inj.Clear(outboxLink)
	<-submitted
	var want []int
	for i := 1; i <= total; i++ {
		if sessionless(i) {
			continue
		}
		want = append(want, i)
		select {
		case err := <-results[i]:
			if err != nil {
				t.Fatalf("sessioned entry %d failed: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("sessioned entry %d never completed after the heal", i)
		}
	}
	if err := r.ob.Flush(time.Second); err == nil {
		t.Error("Flush returned nil though the sessionless entries failed")
	}
	pollStat(t, 5*time.Second, "the consumer to catch up", func() bool {
		n := 0
		for _, p := range r.delivered() {
			if strings.HasPrefix(p, "seq-") {
				n++
			}
		}
		return n >= len(want)
	})
	time.Sleep(50 * time.Millisecond) // room for a duplicate to show
	r.checkSessioned(t, want)

	// Sessionless entries went out once, on the connection that was cut:
	// the broker delivered each at most once, and none after the cut.
	count := map[string]int{}
	for _, p := range r.delivered() {
		if strings.HasPrefix(p, "free-") {
			count[p]++
		}
	}
	for p, n := range count {
		if n != 1 {
			t.Errorf("sessionless %s delivered %d times", p, n)
		}
	}
	st := r.ob.Stats()
	if st.InFlight != 0 || st.Stalls == 0 {
		t.Errorf("after the heal: %+v, want nothing in flight and a stalled submission", st)
	}
	if want := uint64(total - len(want)); st.Failed != want {
		t.Errorf("failed = %d, want the %d sessionless entries", st.Failed, want)
	}
}

// TestOutboxFlushWaitsForReplayedEntries: Flush may not count an entry as
// done because a dead connection completed it. Entries that were sent,
// lost with their connection and re-sent keep Flush failing until a
// connection carries them to a broker ack, and a nil Flush means the
// broker has accepted every one.
func TestOutboxFlushWaitsForReplayedEntries(t *testing.T) {
	r := newOutboxRig(t, 67)
	const n = 32
	var want []int
	for i := 1; i <= n; i++ {
		want = append(want, i)
	}

	// Every write is cut mid-frame, and read latency keeps the client from
	// seeing an ack for the frames that got through before the cut.
	r.inj.Set(outboxLink, faultinject.Rule{TruncateRate: 1, Latency: 300 * time.Millisecond})
	for _, i := range want {
		r.ob.Submit("outbox/seq", []byte(fmt.Sprintf("seq-%d", i)), false, "flush-pub", uint64(i), func(bool, error) {})
	}
	pollStat(t, 10*time.Second, "an entry to be re-sent", func() bool {
		return r.ob.Stats().Replayed >= 1
	})
	// Hold the link down so nothing can be acknowledged.
	r.inj.Partition(outboxLink, true)
	if err := r.ob.Flush(200 * time.Millisecond); err == nil {
		t.Fatalf("Flush returned nil with re-sent entries unacknowledged (%+v)", r.ob.Stats())
	}

	r.inj.Partition(outboxLink, false)
	r.inj.Clear(outboxLink)
	if err := r.ob.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := r.ob.Stats(); st.Acked != n || st.InFlight != 0 {
		t.Fatalf("Flush returned nil at %+v, want %d acked", st, n)
	}
	pollStat(t, 5*time.Second, "the consumer to catch up", func() bool {
		return len(r.delivered()) >= n
	})
	time.Sleep(50 * time.Millisecond)
	r.checkSessioned(t, want)
}

// TestOutboxSessionlessFailOnDialFailure: while the broker cannot be
// dialed, sessionless entries fail with errFwdConnLost instead of waiting
// out the outage; sessioned ones wait and complete once it ends.
func TestOutboxSessionlessFailOnDialFailure(t *testing.T) {
	r := newOutboxRig(t, 71)
	r.inj.Partition(outboxLink, true)
	free := make(chan error, 1)
	seq := make(chan error, 1)
	r.ob.Submit("outbox/seq", []byte("seq-1"), false, "dial-pub", 1, func(_ bool, err error) { seq <- err })
	r.ob.Submit("outbox/free", []byte("free-2"), false, "", 0, func(_ bool, err error) { free <- err })
	select {
	case err := <-free:
		if !errors.Is(err, errFwdConnLost) || !strings.HasPrefix(err.Error(), "outbox: ") {
			t.Fatalf("sessionless entry completed with %v, want errFwdConnLost named for the outbox", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sessionless entry waited out the outage")
	}
	select {
	case err := <-seq:
		t.Fatalf("sessioned entry completed during the outage: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.inj.Partition(outboxLink, false)
	if err := <-seq; err != nil {
		t.Fatal(err)
	}
}

// TestOutboxRedialBacksOffWithoutAcks: a listener that accepts and at once
// closes every connection (a partitioned broker behind the fault injector
// does) must not draw a tight loop of dials: a connection lost before it
// carried an ack counts as a failed attempt, so the redials back off. When
// a broker takes over the address the entry is acknowledged.
func TestOutboxRedialBacksOffWithoutAcks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	brk := New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	var mu sync.Mutex
	dials, healed := 0, false
	ob := NewOutbox("outbox", func() (*Client, error) {
		mu.Lock()
		dials++
		addr := ln.Addr().String()
		if healed {
			addr = brk.Addr()
		}
		mu.Unlock()
		return DialClient(addr)
	}, resilience.Backoff{Initial: 5 * time.Millisecond, Factor: 2, Max: 40 * time.Millisecond})
	defer ob.Close()
	acked := make(chan error, 1)
	ob.Submit("outbox/seq", []byte("seq-1"), false, "redial-pub", 1, func(_ bool, err error) { acked <- err })

	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	n := dials
	healed = true
	mu.Unlock()
	// Backoff 5+10+20+40+40+... ms allows about 15 dials in 500 ms.
	if n > 25 {
		t.Fatalf("%d dials in 500 ms against a listener that drops every connection, want at most 25", n)
	}
	select {
	case err := <-acked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("entry not acknowledged after the broker took over")
	}
	t.Logf("%d dials in 500 ms; replayed %d", n, ob.Stats().Replayed)
}

// TestOutboxConcurrentSessionsExactlyOnce: several sessions submit to one
// outbox at once, each from its own goroutine, while the link cuts
// connections. The first cuts are certain to hit entries in flight: every
// write is truncated until an entry has been re-sent, since a write only
// carries staged, unacknowledged entries; after that the link drops
// connections at random. Every session's entries must reach the broker
// exactly once and in its seq order, and a nil Flush must follow.
func TestOutboxConcurrentSessionsExactlyOnce(t *testing.T) {
	r := newOutboxRig(t, 73)
	r.inj.Set(outboxLink, faultinject.Rule{TruncateRate: 1})
	const sessions, perSession = 4, 300
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= perSession; i++ {
				r.ob.Submit("outbox/seq", []byte(fmt.Sprintf("s%d-%d", s, i)), false,
					fmt.Sprintf("session-%d", s), uint64(i), func(bool, error) {})
			}
		}(s)
	}
	pollStat(t, 10*time.Second, "an entry cut in flight to be re-sent", func() bool {
		return r.ob.Stats().Replayed > 0
	})
	r.inj.Set(outboxLink, faultinject.Rule{DropRate: 0.1})
	wg.Wait()
	if err := r.ob.Flush(30 * time.Second); err != nil {
		t.Fatalf("%v (%+v)", err, r.ob.Stats())
	}
	pollStat(t, 5*time.Second, "the consumer to catch up", func() bool {
		return len(r.delivered()) >= sessions*perSession
	})
	time.Sleep(50 * time.Millisecond) // room for a duplicate to show
	next := make([]int, sessions)
	for _, p := range r.delivered() {
		var s, i int
		if _, err := fmt.Sscanf(p, "s%d-%d", &s, &i); err != nil {
			t.Fatalf("unexpected payload %q", p)
		}
		if next[s]++; i != next[s] {
			t.Fatalf("session %d delivered seq %d, want %d (loss, duplication or reorder)", s, i, next[s])
		}
	}
	for s, n := range next {
		if n != perSession {
			t.Errorf("session %d delivered %d of %d", s, n, perSession)
		}
	}
}

// recordSessioned subscribes an acked consumer to filter on b and returns a
// snapshot of the payloads it has received, in delivery order.
func recordSessioned(t *testing.T, b *Broker, filter, session string) func() []string {
	t.Helper()
	id, ch, err := b.SubscribeOpts(filter, SubOptions{Acked: true, Session: session})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	go func() {
		for m := range ch {
			mu.Lock()
			got = append(got, string(m.Payload))
			mu.Unlock()
			b.Ack(id, m.Seq)
		}
	}()
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

// seqPayloads returns seq-<from> … seq-<to>.
func seqPayloads(from, to int) []string {
	var out []string
	for i := from; i <= to; i++ {
		out = append(out, fmt.Sprintf("seq-%d", i))
	}
	return out
}

// awaitExactly waits for got to reach len(want) entries, leaves room for a
// duplicate to show, and then requires got to equal want.
func awaitExactly(t *testing.T, what string, got func() []string, want []string) {
	t.Helper()
	pollStat(t, 5*time.Second, what, func() bool { return len(got()) >= len(want) })
	time.Sleep(50 * time.Millisecond)
	if g := got(); !slices.Equal(g, want) {
		t.Fatalf("%s: got %v, want %v (loss, duplication or reorder)", what, g, want)
	}
}

// TestOutboxReplaysPastBrokerShutdown: a broker that has begun to close
// refuses publishes until it drops its connections. A refused publish must
// reach the broker that replaces it, not fail for good, so Flush returns
// nil with every entry delivered exactly once across the two brokers.
func TestOutboxReplaysPastBrokerShutdown(t *testing.T) {
	serve := func() (*Broker, func() []string) {
		b := New()
		if err := b.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b, recordSessioned(t, b, "outbox/#", "shutdown-consumer")
	}
	old, oldGot := serve()
	var addr sync.Map
	addr.Store("broker", old.Addr())
	ob := NewOutbox("outbox", func() (*Client, error) {
		a, _ := addr.Load("broker")
		return DialClient(a.(string))
	}, resilience.Backoff{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond})
	defer ob.Close()
	submit := func(from, to int) {
		for i := from; i <= to; i++ {
			ob.Submit("outbox/seq", []byte(fmt.Sprintf("seq-%d", i)), false, "shutdown-pub", uint64(i), func(bool, error) {})
		}
	}
	submit(1, 50)
	if err := ob.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The successor comes up at a new address, and the old broker is held
	// where Close leaves it between refusing publishes and dropping its
	// connections.
	next, nextGot := serve()
	addr.Store("broker", next.Addr())
	old.closed.Store(true)
	submit(51, 100)
	if err := ob.Flush(10 * time.Second); err != nil {
		t.Fatalf("%v (%+v)", err, ob.Stats())
	}
	old.Close()
	awaitExactly(t, "the old broker's deliveries", oldGot, seqPayloads(1, 50))
	awaitExactly(t, "the successor's deliveries", nextGot, seqPayloads(51, 100))
}

// TestOutboxReplaysPastIngressNodeClose: a publisher reaches the owner
// shard through an ingress node, and the ingress node closes with the
// forwards in its uplink outbox, either waiting for a dial or sent and
// unacknowledged. The node must drop the publisher's connection rather
// than fail those publishes, so the publisher re-sends them through the
// node that replaces it and the owner delivers each exactly once.
func TestOutboxReplaysPastIngressNodeClose(t *testing.T) {
	for _, tc := range []struct {
		name      string
		partition bool             // the uplink cannot dial
		rule      faultinject.Rule // or it delivers, and the acks lag
	}{
		{name: "unsent", partition: true},
		{name: "unacknowledged", rule: faultinject.Rule{Latency: 300 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const shards, n = 2, 40
			const link = "uplink:s1-s0"
			inj := faultinject.New(79)
			var addrs sync.Map
			opts := NodeOptions{
				Resolve: func(s int) (string, error) {
					a, _ := addrs.Load(s)
					return a.(string), nil
				},
				Dial: func(link, addr string) (net.Conn, error) {
					return inj.Dial(link, addr, time.Second)
				},
				ReconnectBackoff: resilience.Backoff{Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond},
			}
			serve := func(shard int) *Node {
				nd := NewNode(shard, shards, opts)
				if err := nd.Serve("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { nd.Close() })
				addrs.Store(shard, nd.Addr())
				return nd
			}
			owner := serve(0)
			ingress := serve(1)
			wc := wcOnShard(t, shards, 0)
			got := recordSessioned(t, owner.Broker, "factory/+/"+wc+"/#", "ingress-consumer")

			inj.Partition(link, tc.partition)
			inj.Set(link, tc.rule)
			ob := NewOutbox("outbox", func() (*Client, error) {
				a, _ := addrs.Load(1)
				return DialClient(a.(string))
			}, resilience.Backoff{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond})
			defer ob.Close()
			topic := "factory/line1/" + wc + "/machA/values/ledger"
			for i := 1; i <= n; i++ {
				ob.Submit(topic, []byte(fmt.Sprintf("seq-%d", i)), false, "ingress-pub", uint64(i), func(bool, error) {})
			}
			pollStat(t, 5*time.Second, "the forwards to wait in the ingress uplink", func() bool {
				return ingress.NodeStats().ForwardInFlight == n
			})

			ingress.Close()
			inj.Partition(link, false)
			inj.Clear(link)
			serve(1)
			if err := ob.Flush(10 * time.Second); err != nil {
				t.Fatalf("%v (%+v)", err, ob.Stats())
			}
			awaitExactly(t, "the owner's deliveries", got, seqPayloads(1, n))
		})
	}
}
