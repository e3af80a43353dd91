package broker

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/placement"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// fedWorkcells is a universe big enough that every shard owns at least
// one workcell at the counts the tests use.
func fedWorkcells(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("wc%02d", i)
	}
	return out
}

// wcOnShard finds a workcell owned by the given shard.
func wcOnShard(t *testing.T, shards, want int) string {
	t.Helper()
	ring := placement.NewRing(shards)
	for _, wc := range fedWorkcells(12) {
		if ring.Owner(wc) == want {
			return wc
		}
	}
	t.Fatalf("no workcell of 12 owned by shard %d/%d", want, shards)
	return ""
}

func fastFederation(t *testing.T, shards int, configure func(int, *NodeOptions)) *Federation {
	t.Helper()
	f, err := NewFederation(shards, fedWorkcells(12), func(s int, o *NodeOptions) {
		o.ReconnectBackoff = resilience.Backoff{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond}
		o.RedeliveryBackoff = resilience.Backoff{Initial: 50 * time.Millisecond, Max: 500 * time.Millisecond}
		if configure != nil {
			configure(s, o)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func dialShard(t *testing.T, f *Federation, shard int) *Client {
	t.Helper()
	addr, err := f.Addr(shard)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// ackedConsumer is an acked-session subscriber that acknowledges every
// message it consumes (without acks, delivery stalls at the in-flight
// window — exactly as it should).
type ackedConsumer struct {
	t     *testing.T
	c     *Client
	subID int
	ch    <-chan Message
}

func newAckedConsumer(t *testing.T, f *Federation, shard int, filter, session string) *ackedConsumer {
	t.Helper()
	c := dialShard(t, f, shard)
	subID, ch, err := c.SubscribeSession(filter, session, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &ackedConsumer{t: t, c: c, subID: subID, ch: ch}
}

// next returns the next non-probe message (acking everything consumed),
// or nil after timeout.
func (a *ackedConsumer) next(timeout time.Duration) *Message {
	deadline := time.After(timeout)
	for {
		select {
		case m := <-a.ch:
			_ = a.c.Ack(a.subID, m.Seq)
			if !strings.HasPrefix(string(m.Payload), "probe-") {
				return &m
			}
		case <-deadline:
			return nil
		}
	}
}

// waitBridge publishes probes through pub until one crosses to the
// consumer: bridge pulls attach asynchronously after the subscription,
// and a zero-loss stream must start only once the acked session chain
// exists end to end.
func (a *ackedConsumer) waitBridge(pub *Client, topic string) {
	a.t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; ; i++ {
		_ = pub.Publish(topic, []byte(fmt.Sprintf("probe-%d", i)), false)
		select {
		case m := <-a.ch:
			_ = a.c.Ack(a.subID, m.Seq)
			if strings.HasPrefix(string(m.Payload), "probe-") {
				return
			}
			a.t.Fatalf("unexpected pre-stream message %q", m.Payload)
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			a.t.Fatal("bridge never came up")
		}
	}
}

// TestFederationCrossShardExactlyOnce: numbered samples published on an
// ingress shard, owned by a second, consumed on a third — every sample
// arrives exactly once through forward + bridge, in order.
func TestFederationCrossShardExactlyOnce(t *testing.T) {
	const shards = 3
	f := fastFederation(t, shards, nil)
	wc := wcOnShard(t, shards, 0)
	const ingress, egress = 1, 2
	topic := "factory/line1/" + wc + "/machA/values/axes/x"

	consumer := newAckedConsumer(t, f, egress, "factory/+/"+wc+"/#", "test-consumer")
	pub := dialShard(t, f, ingress)
	consumer.waitBridge(pub, topic)

	const n = 200
	go func() {
		for i := 1; i <= n; i++ {
			if _, err := pub.PublishSeq(topic, []byte(fmt.Sprintf("s-%d", i)), false, "test-pub", uint64(i)); err != nil {
				return
			}
		}
	}()

	for next := 1; next <= n; next++ {
		m := consumer.next(5 * time.Second)
		if m == nil {
			t.Fatalf("stream stalled at sample %d", next)
		}
		want := fmt.Sprintf("s-%d", next)
		if string(m.Payload) != want {
			t.Fatalf("got %q, want %q (loss or duplication)", m.Payload, want)
		}
	}
	if f.Nodes[ingress].NodeStats().Forwarded == 0 {
		t.Error("ingress node forwarded nothing; stream did not cross the uplink")
	}
	if f.Nodes[egress].NodeStats().BridgedIn == 0 {
		t.Error("egress node bridged nothing; stream did not cross the bridge")
	}
}

// TestFederationForwardDedup: the same (session, seq) retried through
// two different ingress nodes must deliver once — the owner's high-water
// mark is the single dedup point, so an ingress-node death mid-retry
// cannot double-deliver.
func TestFederationForwardDedup(t *testing.T) {
	const shards = 3
	f := fastFederation(t, shards, nil)
	wc := wcOnShard(t, shards, 0)
	topic := "factory/line1/" + wc + "/machA/values/axes/x"

	// Consume on the owner: no bridge in play, just the forward path.
	consumer := newAckedConsumer(t, f, 0, "factory/+/"+wc+"/#", "dedup-consumer")

	pubA := dialShard(t, f, 1)
	pubB := dialShard(t, f, 2)
	if dup, err := pubA.PublishSeq(topic, []byte("once"), false, "retry-pub", 7); err != nil || dup {
		t.Fatalf("first publish: dup=%v err=%v", dup, err)
	}
	if dup, err := pubB.PublishSeq(topic, []byte("once"), false, "retry-pub", 7); err != nil || !dup {
		t.Fatalf("cross-ingress retry: dup=%v err=%v, want dup=true", dup, err)
	}

	m := consumer.next(5 * time.Second)
	if m == nil {
		t.Fatal("message never arrived")
	}
	if string(m.Payload) != "once" {
		t.Fatalf("got %q", m.Payload)
	}
	if m2 := consumer.next(200 * time.Millisecond); m2 != nil {
		t.Fatalf("duplicate delivery %q", m2.Payload)
	}
}

// TestFederationBridgeSeverReplay: a bridge partitioned mid-stream must
// replay the gap on heal — zero loss, zero duplication — with the
// publisher never noticing (it publishes to the owner shard directly;
// only the consumer's pull is severed).
func TestFederationBridgeSeverReplay(t *testing.T) {
	const shards = 2
	inj := faultinject.New(31)
	f := fastFederation(t, shards, func(s int, o *NodeOptions) {
		o.Dial = func(link, addr string) (net.Conn, error) {
			return inj.Dial(link, addr, time.Second)
		}
	})
	wc := wcOnShard(t, shards, 0)
	topic := "factory/line1/" + wc + "/machA/values/axes/x"
	link := "bridge:s1-s0"

	consumer := newAckedConsumer(t, f, 1, "factory/+/"+wc+"/#", "sever-consumer")
	pub := dialShard(t, f, 0)
	consumer.waitBridge(pub, topic)

	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			if _, err := pub.PublishSeq(topic, []byte(fmt.Sprintf("s-%d", i)), false, "sever-pub", uint64(i)); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			if i == n/3 {
				inj.Partition(link, true)
			}
			if i == 2*n/3 {
				inj.Partition(link, false)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for next := 1; next <= n; next++ {
		m := consumer.next(10 * time.Second)
		if m == nil {
			t.Fatalf("stream stalled at sample %d (partition healed but gap never replayed?)", next)
		}
		want := fmt.Sprintf("s-%d", next)
		if string(m.Payload) != want {
			t.Fatalf("got %q, want %q", m.Payload, want)
		}
	}
	<-done
	if got := f.Nodes[1].NodeStats().Reconnects; got == 0 {
		t.Error("bridge never reconnected; partition did not bite")
	}
	if refused := f.Nodes[0].Broker.Stats().Refused; refused != 0 {
		t.Errorf("owner refused %d messages", refused)
	}
}

// TestFederationWildcardPullsAllShards: a filter spanning workcells
// pulls every remote-owned workcell, so a plant-wide subscriber on one
// shard still sees traffic from every shard.
func TestFederationWildcardPullsAllShards(t *testing.T) {
	const shards = 3
	f := fastFederation(t, shards, nil)
	consumer := newAckedConsumer(t, f, 2, "factory/#", "wild-consumer")

	// One workcell per shard, each published through its own owner so
	// only the bridge (not the forward path) is under test. Retained, so
	// publish order cannot race bridge attachment: the pull session
	// replays retained state whenever it comes up.
	seen := map[string]bool{}
	for s := 0; s < shards; s++ {
		wc := wcOnShard(t, shards, s)
		topic := "factory/line1/" + wc + "/m/values/v/x"
		payload := "from-" + wc
		pub := dialShard(t, f, s)
		if err := pub.Publish(topic, []byte(payload), true); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < shards {
		m := consumer.next(time.Until(deadline))
		if m == nil {
			t.Fatalf("saw only %v of %d shards' workcells", seen, shards)
		}
		seen[string(m.Payload)] = true
	}
}

// TestFederationNonPlantTopicsStayLocal: topics outside the generated
// factory layout have no owner shard — they are node-local, and a
// subscriber on another shard does not see them.
func TestFederationNonPlantTopicsStayLocal(t *testing.T) {
	const shards = 2
	f := fastFederation(t, shards, nil)
	local := dialShard(t, f, 0)
	remote := dialShard(t, f, 1)

	_, localCh, err := local.Subscribe("telemetry/#")
	if err != nil {
		t.Fatal(err)
	}
	_, remoteCh, err := remote.Subscribe("telemetry/#")
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Publish("telemetry/node/load", []byte("0.7"), false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-localCh:
		if string(m.Payload) != "0.7" {
			t.Fatalf("got %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("local subscriber missed a local topic")
	}
	select {
	case m := <-remoteCh:
		t.Fatalf("node-local topic crossed shards: %q on %q", m.Payload, m.Topic)
	case <-time.After(200 * time.Millisecond):
	}
	if st := f.Nodes[0].NodeStats(); st.Forwarded != 0 {
		t.Errorf("node-local publish was forwarded (%d)", st.Forwarded)
	}
}

// TestFederationPullReleasedOnUnsubscribe: when the last local filter
// needing a workcell unsubscribes, the remote pull session ends — the
// owner must not queue (and eventually refuse) for a consumer that is
// gone for good.
func TestFederationPullReleasedOnUnsubscribe(t *testing.T) {
	const shards = 2
	f := fastFederation(t, shards, nil)
	wc := wcOnShard(t, shards, 0)
	topic := "factory/line1/" + wc + "/m/values/v/x"

	consumer := newAckedConsumer(t, f, 1, "factory/+/"+wc+"/#", "release-consumer")
	pub := dialShard(t, f, 0)
	consumer.waitBridge(pub, topic)

	if err := consumer.c.Unsubscribe(consumer.subID); err != nil {
		t.Fatal(err)
	}
	// The owner-side pull session must disappear (async round trip).
	deadline := time.Now().Add(5 * time.Second)
	for {
		subs := f.Nodes[0].Broker.Stats().Subscriptions
		if subs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner still has %d subscriptions; pull session leaked", subs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeRoutingMatchesPlacement: the runtime router and the placement
// package must agree on every topic — the codegen side of this property
// is pinned in internal/codegen.
func TestNodeRoutingMatchesPlacement(t *testing.T) {
	const shards = 4
	f := fastFederation(t, shards, nil)
	ring := placement.NewRing(shards)
	for _, wc := range fedWorkcells(12) {
		topic := "factory/line9/" + wc + "/m/values/v/x"
		want := ring.Owner(wc)
		for _, n := range f.Nodes {
			if got := n.OwnerOf(topic); got != want {
				t.Fatalf("node s%d routes %s to %d, placement says %d", n.Shard(), topic, got, want)
			}
		}
	}
}

// pollStat polls fn until it reports true or the timeout passes — for
// federation counters that settle asynchronously (completions trail the
// consumer's receipt by an ack round trip).
func pollStat(t *testing.T, timeout time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFederationForwardWindowPartitionHeal drives the windowed uplink
// through its three edges in one run: a truncated write leaves a
// sent-but-unacked forward that must replay (ForwardReplayed), a
// partition with a full queue fills the window until submission stalls
// (ForwardStalls, ForwardInFlight == fwdWindow), and the heal drains
// everything exactly once, in order — the owner's publisher-dedup
// high-water mark absorbing any forward the truncated connection already
// delivered.
func TestFederationForwardWindowPartitionHeal(t *testing.T) {
	const shards = 2
	inj := faultinject.New(47)
	f := fastFederation(t, shards, func(s int, o *NodeOptions) {
		o.Dial = func(link, addr string) (net.Conn, error) {
			return inj.Dial(link, addr, time.Second)
		}
	})
	wc := wcOnShard(t, shards, 0)
	topic := "factory/line1/" + wc + "/machA/values/axes/x"
	link := "uplink:s1-s0"

	// Consume on the owner shard: no bridge in play, the forward path
	// alone is under test.
	consumer := newAckedConsumer(t, f, 0, "factory/+/"+wc+"/#", "window-consumer")
	pub := dialShard(t, f, 1)

	// Prime the uplink with one synchronous forward so the link is up.
	if dup, err := pub.PublishSeq(topic, []byte("s-1"), false, "win-pub", 1); err != nil || dup {
		t.Fatalf("prime: dup=%v err=%v", dup, err)
	}
	if m := consumer.next(5 * time.Second); m == nil || string(m.Payload) != "s-1" {
		t.Fatal("primer never arrived")
	}

	// Every uplink write is now cut mid-frame and drops the connection:
	// staged forwards park as sent-but-unacked and restage on the redial,
	// which the next write truncates again — a replay loop that holds
	// until the partition below freezes the link.
	inj.Set(link, faultinject.Rule{TruncateRate: 1})

	// The forwards go out in two batches: a few under truncation, and
	// more than a window's worth once the link is partitioned. Nothing
	// completes across a partition, so the second batch alone fills the
	// window and stalls admission, however many of the first batch the
	// truncated writes happened to get through.
	const before, total = 40, 40 + fwdWindow + 4
	results := make(chan error, total)
	partitioned := make(chan struct{})
	go func() {
		for i := 2; i <= total+1; i++ {
			if i == before+2 {
				<-partitioned
			}
			payload := []byte(fmt.Sprintf("s-%d", i))
			if err := pub.PublishSeqAsync(topic, payload, false, "win-pub", uint64(i), func(dup bool, err error) {
				results <- err
			}); err != nil {
				results <- err
				return
			}
		}
	}()

	stats := func() NodeStats { return f.Nodes[1].NodeStats() }
	pollStat(t, 10*time.Second, "a forward to replay", func() bool {
		return stats().ForwardReplayed >= 1
	})
	// Hard-partition the link (kills the conn, refuses redials) and lift
	// the truncation so the heal gets a clean connection.
	inj.Partition(link, true)
	inj.Clear(link)
	close(partitioned)
	pollStat(t, 10*time.Second, "the window to fill and stall", func() bool {
		st := stats()
		return st.ForwardStalls >= 1 && st.ForwardInFlight == fwdWindow
	})

	inj.Partition(link, false)
	for i := 0; i < total; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("forward %d failed after heal: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d forwards completed after heal", i, total)
		}
	}

	// The owner delivered every sequence exactly once, in order — the
	// replayed window and whatever the truncated writes half-delivered
	// were deduped at the single dedup point.
	for next := 2; next <= total+1; next++ {
		m := consumer.next(10 * time.Second)
		if m == nil {
			t.Fatalf("stream stalled at s-%d", next)
		}
		if want := fmt.Sprintf("s-%d", next); string(m.Payload) != want {
			t.Fatalf("got %q, want %q (loss or duplication)", m.Payload, want)
		}
	}
	if m := consumer.next(200 * time.Millisecond); m != nil {
		t.Fatalf("duplicate delivery %q", m.Payload)
	}

	pollStat(t, 10*time.Second, "the window to drain", func() bool {
		return stats().ForwardInFlight == 0
	})
	if st := stats(); st.ForwardErrors != 0 || st.Forwarded < total {
		t.Errorf("forwarded=%d errors=%d, want >=%d forwarded and 0 errors",
			st.Forwarded, st.ForwardErrors, total)
	}
}

// TestFederationBridgeAckLostReplayDedup pins the bridge's crash window:
// a pulled message is republished locally but its cumulative ack is lost
// (the write is truncated mid-frame and the connection drops), and the
// reattach point is wound back to before the message — as a bridge that
// died between republish and fromSeq bump would reattach. The owner
// replays the unacked message; the pull session's publisher-dedup
// high-water mark must drop it (BridgeDups), never deliver it twice.
func TestFederationBridgeAckLostReplayDedup(t *testing.T) {
	const shards = 2
	inj := faultinject.New(53)
	f := fastFederation(t, shards, func(s int, o *NodeOptions) {
		o.Dial = func(link, addr string) (net.Conn, error) {
			return inj.Dial(link, addr, time.Second)
		}
	})
	wc := wcOnShard(t, shards, 0)
	topic := "factory/line1/" + wc + "/machA/values/axes/x"
	link := "bridge:s1-s0"

	consumer := newAckedConsumer(t, f, 1, "factory/+/"+wc+"/#", "acklost-consumer")
	pub := dialShard(t, f, 0)
	consumer.waitBridge(pub, topic)

	// An acked prefix, fully drained, so the only replay overlap later is
	// the one message whose ack we destroy.
	const prefix = 50
	for i := 1; i <= prefix; i++ {
		if _, err := pub.PublishSeq(topic, []byte(fmt.Sprintf("s-%d", i)), false, "acklost-pub", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for next := 1; next <= prefix; next++ {
		m := consumer.next(5 * time.Second)
		if m == nil {
			t.Fatalf("prefix stalled at s-%d", next)
		}
		if want := fmt.Sprintf("s-%d", next); string(m.Payload) != want {
			t.Fatalf("got %q, want %q", m.Payload, want)
		}
	}
	n1 := f.Nodes[1]
	pollStat(t, 5*time.Second, "bridge in-flight to drain", func() bool {
		return n1.NodeStats().BridgeInFlight == 0
	})
	time.Sleep(100 * time.Millisecond) // let the prefix's cumulative ack land

	n1.mu.Lock()
	l := n1.links[0]
	n1.mu.Unlock()
	if l == nil {
		t.Fatal("no bridge link to the owner")
	}
	l.mu.Lock()
	p := l.pulls[wc]
	l.mu.Unlock()
	if p == nil {
		t.Fatalf("no pull state for %s", wc)
	}
	ackedTo := p.fromSeq.Load()

	// The next bridge write — the ack for the message below — is cut
	// mid-frame and the connection drops. Reads are unaffected, so the
	// message itself is pulled and republished first: the consumer sees
	// it, the owner keeps it queued as unacked.
	inj.Set(link, faultinject.Rule{TruncateRate: 1})
	if _, err := pub.PublishSeq(topic, []byte("s-51"), false, "acklost-pub", prefix+1); err != nil {
		t.Fatal(err)
	}
	if m := consumer.next(5 * time.Second); m == nil || string(m.Payload) != "s-51" {
		t.Fatal("s-51 never republished")
	}
	pollStat(t, 5*time.Second, "the ack write to truncate", func() bool {
		return inj.Stats()[link].Truncations >= 1
	})

	// Hold the link down (redials with the truncate rule still on cannot
	// reattach — the subscribe write dies too — but the partition makes
	// that airtight), wait for the dead connection's consumers to drain,
	// then wind the reattach point back to before s-51.
	inj.Partition(link, true)
	inj.Clear(link)
	pollStat(t, 5*time.Second, "the dead connection to drain", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.client == nil
	})
	if got := p.fromSeq.Load(); got <= ackedTo {
		t.Fatalf("fromSeq %d never advanced past %d; s-51 was not republished?", got, ackedTo)
	}
	p.fromSeq.Store(ackedTo)
	dupsBefore := n1.NodeStats().BridgeDups

	inj.Partition(link, false)
	if _, err := pub.PublishSeq(topic, []byte("s-52"), false, "acklost-pub", prefix+2); err != nil {
		t.Fatal(err)
	}
	m := consumer.next(10 * time.Second)
	if m == nil {
		t.Fatal("stream never resumed after heal")
	}
	if string(m.Payload) != "s-52" {
		t.Fatalf("got %q, want s-52 (replayed s-51 leaked through dedup?)", m.Payload)
	}
	pollStat(t, 10*time.Second, "the replayed message to be deduped", func() bool {
		return n1.NodeStats().BridgeDups > dupsBefore
	})
	pollStat(t, 10*time.Second, "bridge in-flight to drain", func() bool {
		return n1.NodeStats().BridgeInFlight == 0
	})
	if st := n1.NodeStats(); st.Reconnects == 0 {
		t.Error("bridge never reconnected; the truncated ack did not sever the link")
	}
}

// TestPublishSeqAsyncCumulative exercises the client side of the forward
// protocol against a plain broker (no owns hook: every topic is owned, so
// Fwd publishes take the owner's answer path): completions are FIFO over
// the cumulative-ack channel, and a (session, seq) resend resolves dup=true
// through the explicit-ack escape. The subtest is named after the binary
// framing, the one the broker speaks.
func TestPublishSeqAsyncCumulative(t *testing.T) {
	t.Run("binary", testPublishSeqAsyncCumulative)
}

func testPublishSeqAsyncCumulative(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	_, ch, err := sub.Subscribe("fwd/#")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := pub.PublishSeqAsync("fwd/+/bad", nil, false, "s", 1, func(bool, error) {}); err == nil {
		t.Fatal("wildcard publish topic accepted")
	}

	const n = 10
	type res struct {
		i   int
		dup bool
		err error
	}
	results := make(chan res, n+1)
	for i := 1; i <= n; i++ {
		i := i
		payload := []byte(fmt.Sprintf("a-%d", i))
		if err := pub.PublishSeqAsync("fwd/async/x", payload, false, "async-pub", uint64(i), func(dup bool, err error) {
			results <- res{i, dup, err}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= n; want++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("forward %d: %v", r.i, r.err)
			}
			if r.dup {
				t.Fatalf("forward %d reported dup on first delivery", r.i)
			}
			if r.i != want {
				t.Fatalf("completion %d arrived before %d; cumulative completion must be FIFO", r.i, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("completion %d never arrived", want)
		}
	}

	// A retry of an accepted (session, seq) resolves dup — the
	// explicit per-frame ack overriding the cumulative channel.
	if err := pub.PublishSeqAsync("fwd/async/x", []byte("retry"), false, "async-pub", n, func(dup bool, err error) {
		results <- res{0, dup, err}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-results:
		if r.err != nil || !r.dup {
			t.Fatalf("retry: dup=%v err=%v, want dup=true", r.dup, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry completion never arrived")
	}

	for i := 1; i <= n; i++ {
		m := recvMsg(t, ch, "delivery")
		if want := fmt.Sprintf("a-%d", i); string(m.Payload) != want {
			t.Fatalf("got %q, want %q", m.Payload, want)
		}
	}
	select {
	case m := <-ch:
		t.Fatalf("duplicate delivery %q", m.Payload)
	case <-time.After(200 * time.Millisecond):
	}
}
