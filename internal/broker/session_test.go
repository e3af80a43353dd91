package broker

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/resilience"
)

func fastRedelivery(b *Broker) {
	b.RedeliveryBackoff = resilience.Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond}
}

func collectSeqs(t *testing.T, ch <-chan Message, n int) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d of %d messages", len(out), n)
			}
			out = append(out, m)
		case <-deadline:
			t.Fatalf("timed out after %d of %d messages", len(out), n)
		}
	}
	return out
}

func TestAckedSequencesAndWindow(t *testing.T) {
	b := New()
	defer b.Close()
	// Long backoff: no redelivery fires during the test, so anything past
	// the window is a real window violation and not a legitimate redelivery.
	b.RedeliveryBackoff = resilience.Backoff{Initial: time.Minute, Max: time.Minute}

	id, ch, err := b.SubscribeOpts("audit/#", SubOptions{Acked: true, Session: "s1", Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := b.Publish("audit/x", []byte(fmt.Sprintf("m%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	// Window of 4: exactly 4 in flight until acked.
	first := collectSeqs(t, ch, 4)
	for i, m := range first {
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, m.Seq, i+1)
		}
	}
	select {
	case m := <-ch:
		t.Fatalf("window violated: got seq %d with 4 unacked", m.Seq)
	case <-time.After(50 * time.Millisecond):
	}
	b.Ack(id, 4)
	next := collectSeqs(t, ch, 4)
	if next[0].Seq != 5 || next[3].Seq != 8 {
		t.Fatalf("after ack got seqs %d..%d, want 5..8", next[0].Seq, next[3].Seq)
	}
	b.Ack(id, 10)
	b.Unsubscribe(id)
}

func TestAckedRedeliveryUntilAcked(t *testing.T) {
	b := New()
	defer b.Close()
	fastRedelivery(b)

	id, ch, err := b.SubscribeOpts("r/#", SubOptions{Acked: true, Session: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("r/x", []byte("once"), false); err != nil {
		t.Fatal(err)
	}
	m1 := collectSeqs(t, ch, 1)[0]
	// Don't ack: the same seq must come back.
	m2 := collectSeqs(t, ch, 1)[0]
	if m1.Seq != 1 || m2.Seq != 1 {
		t.Fatalf("redelivery seqs = %d, %d; want 1, 1", m1.Seq, m2.Seq)
	}
	redelivered := b.Stats().Redelivered
	if redelivered == 0 {
		t.Fatal("redelivered counter not bumped")
	}
	b.Ack(id, 1)
	// Acked: no further redelivery.
	select {
	case m := <-ch:
		t.Fatalf("redelivered after ack: seq %d", m.Seq)
	case <-time.After(250 * time.Millisecond):
	}
}

// TestSessionSurvivesDetach is the core durability property: messages
// published while no consumer is attached queue up and replay on resume,
// and FromSeq dedups what the consumer already processed.
func TestSessionSurvivesDetach(t *testing.T) {
	b := New()
	defer b.Close()
	// In-proc consumers have no seq dedup, so keep redelivery out of the
	// test window to assert exact sequences.
	b.RedeliveryBackoff = resilience.Backoff{Initial: time.Minute, Max: time.Minute}

	id, ch, err := b.SubscribeOpts("d/#", SubOptions{Acked: true, Session: "hist"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		_ = b.Publish("d/x", []byte(fmt.Sprintf("m%d", i)), false)
	}
	got := collectSeqs(t, ch, 3)
	b.Ack(id, 2) // processed 1..2; 3 delivered but unacked

	b.Detach(id)
	if _, ok := <-ch; ok {
		// drain until close
		for range ch {
		}
	}
	// Published while detached: must queue.
	for i := 4; i <= 6; i++ {
		_ = b.Publish("d/x", []byte(fmt.Sprintf("m%d", i)), false)
	}

	id2, ch2, err := b.SubscribeOpts("d/#", SubOptions{Acked: true, Session: "hist", FromSeq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("resume changed subscription id: %d -> %d", id, id2)
	}
	resumed := collectSeqs(t, ch2, 4)
	for i, m := range resumed {
		want := uint64(i + 3)
		if m.Seq != want {
			t.Fatalf("resumed seq[%d] = %d, want %d", i, m.Seq, want)
		}
	}
	if string(resumed[0].Payload) != "m3" {
		t.Fatalf("resumed payload = %q, want m3", resumed[0].Payload)
	}
	_ = got
	b.Ack(id2, 6)
	b.Unsubscribe(id2)
	if subs := b.Stats().Subscriptions; subs != 0 {
		t.Fatalf("unsubscribe left %d sessions registered", subs)
	}
}

func TestSessionTakeover(t *testing.T) {
	b := New()
	defer b.Close()
	fastRedelivery(b)

	_, ch1, err := b.SubscribeOpts("t/#", SubOptions{Acked: true, Session: "s"})
	if err != nil {
		t.Fatal(err)
	}
	id2, ch2, err := b.SubscribeOpts("t/#", SubOptions{Acked: true, Session: "s"})
	if err != nil {
		t.Fatalf("takeover refused: %v", err)
	}
	// The first attachment's channel closes.
	select {
	case _, ok := <-ch1:
		if ok {
			t.Fatal("old attachment still receiving")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("old attachment not closed on takeover")
	}
	_ = b.Publish("t/x", []byte("after"), false)
	m := collectSeqs(t, ch2, 1)[0]
	if m.Seq != 1 {
		t.Fatalf("takeover seq = %d", m.Seq)
	}
	b.Ack(id2, 1)
}

func TestSessionFilterMismatchRejected(t *testing.T) {
	b := New()
	defer b.Close()
	if _, _, err := b.SubscribeOpts("a/#", SubOptions{Acked: true, Session: "s"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.SubscribeOpts("b/#", SubOptions{Acked: true, Session: "s"}); err == nil {
		t.Fatal("session reuse with a different filter must be rejected")
	}
	if _, _, err := b.SubscribeOpts("a/#", SubOptions{Acked: true}); err == nil {
		t.Fatal("acked subscription without a session must be rejected")
	}
}

func TestPublishSeqDedup(t *testing.T) {
	b := New()
	defer b.Close()
	b.RedeliveryBackoff = resilience.Backoff{Initial: time.Minute, Max: time.Minute}
	_, ch, err := b.SubscribeOpts("p/#", SubOptions{Acked: true, Session: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if dup, err := b.PublishSeq("p/x", []byte("v"), false, "pub", 1); err != nil || dup {
		t.Fatalf("first publish: dup=%v err=%v", dup, err)
	}
	// Idempotent retry of the same sequence.
	if dup, err := b.PublishSeq("p/x", []byte("v"), false, "pub", 1); err != nil || !dup {
		t.Fatalf("retry publish: dup=%v err=%v, want dup", dup, err)
	}
	if dup, _ := b.PublishSeq("p/x", []byte("v2"), false, "pub", 2); dup {
		t.Fatal("new sequence flagged as dup")
	}
	got := collectSeqs(t, ch, 2)
	if len(got) != 2 || string(got[0].Payload) != "v" || string(got[1].Payload) != "v2" {
		t.Fatalf("delivered %d messages, want the 2 distinct ones", len(got))
	}
	select {
	case m := <-ch:
		t.Fatalf("dup retry was delivered: %q", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPublishSeqDedupIsAtomicPerSession: two carriers of one session racing
// through the same sequence numbers (a broken uplink connection's buffered
// frames beside the new connection's replay of them) publish each number
// once between them, in order.
func TestPublishSeqDedupIsAtomicPerSession(t *testing.T) {
	b := New()
	defer b.Close()
	const seqs = 2000
	_, ch, err := b.Subscribe("p/#")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for carrier := 0; carrier < 2; carrier++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= seqs; seq++ {
				dup, err := b.PublishSeq("p/x", []byte(strconv.FormatUint(seq, 10)), false, "pub", seq)
				if err != nil {
					t.Error(err)
					return
				}
				if !dup {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := accepted.Load(); got != seqs {
		t.Fatalf("%d publishes accepted for %d sequence numbers", got, seqs)
	}
	// A plain subscription sheds its oldest under load; what it has
	// handed over so far is still in publish order.
	var last uint64
	for {
		select {
		case m := <-ch:
			seq, _ := strconv.ParseUint(string(m.Payload), 10, 64)
			if seq <= last {
				t.Fatalf("delivered %d after %d", seq, last)
			}
			last = seq
			continue
		default:
		}
		break
	}
}

// TestAckedSessionPacesPublishers: a publish that matches an attached
// session ackedPaceBacklog behind waits for the consumer's ack, not past a
// detach, and not twice for a consumer that acknowledges nothing; none of it
// refuses a message.
func TestAckedSessionPacesPublishers(t *testing.T) {
	b := New()
	defer b.Close()
	b.RedeliveryBackoff = resilience.Backoff{Initial: time.Minute, Max: time.Minute}
	id, _, err := b.SubscribeOpts("p/#", SubOptions{Acked: true, Session: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	publish := func() <-chan time.Duration {
		took := make(chan time.Duration, 1)
		t0 := time.Now()
		go func() {
			if err := b.Publish("p/x", []byte("v"), false); err != nil {
				t.Error(err)
			}
			took <- time.Since(t0)
		}()
		return took
	}
	for i := 0; i < ackedPaceBacklog; i++ {
		if d := <-publish(); d > ackedPaceWait/2 {
			t.Fatalf("publish %d waited %v with the backlog under the pace depth", i, d)
		}
	}

	held := publish()
	select {
	case d := <-held:
		t.Fatalf("publish returned after %v with the consumer %d behind", d, ackedPaceBacklog)
	case <-time.After(50 * time.Millisecond):
	}
	b.Ack(id, 1)
	if d := <-held; d > ackedPaceWait/2 {
		t.Errorf("publish waited %v, the ack came after 50ms", d)
	}

	// Full again. A consumer that acknowledges nothing is waited for once.
	if d := <-publish(); d < ackedPaceWait {
		t.Errorf("publish waited %v for a silent consumer, want %v", d, ackedPaceWait)
	}
	if d := <-publish(); d > ackedPaceWait/2 {
		t.Errorf("publish waited %v again for a consumer already found stalled", d)
	}
	// Its next ack makes it worth waiting for again; a detach ends the wait.
	b.Ack(id, 2)
	held = publish()
	select {
	case d := <-held:
		t.Fatalf("publish returned after %v, the consumer acknowledged and is still behind", d)
	case <-time.After(50 * time.Millisecond):
	}
	b.Detach(id)
	if d := <-held; d > ackedPaceWait/2 {
		t.Errorf("publish waited %v past the detach", d)
	}
	if d := <-publish(); d > ackedPaceWait/2 {
		t.Errorf("publish waited %v for a detached session", d)
	}
	if refused := b.Stats().Refused; refused != 0 {
		t.Errorf("%d messages refused, want 0", refused)
	}
}

// TestClientSessionOverTCP exercises the full wire path: an acked session
// over a real connection, a dropped connection, and a resume from a new
// connection with the last acked sequence.
func TestClientSessionOverTCP(t *testing.T) {
	b := New()
	defer b.Close()
	fastRedelivery(b)
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	pub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	c1, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	subID, ch, err := c1.SubscribeSession("w/#", "sess", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := pub.PublishSeq("w/x", []byte(fmt.Sprintf("m%d", i)), false, "p", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collectSeqs(t, ch, 5)
	if err := c1.Ack(subID, 3); err != nil { // consumer persisted only 1..3
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the fire-and-forget ack land
	c1.Close()

	// Published during the outage.
	for i := 6; i <= 8; i++ {
		if _, err := pub.PublishSeq("w/x", []byte(fmt.Sprintf("m%d", i)), false, "p", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	subID2, ch2, err := c2.SubscribeSession("w/#", "sess", 3)
	if err != nil {
		t.Fatal(err)
	}
	resumed := collectSeqs(t, ch2, 5) // 4,5 unacked + 6,7,8 queued
	for i, m := range resumed {
		want := uint64(i + 4)
		if m.Seq != want {
			t.Fatalf("resumed seq[%d] = %d, want %d", i, m.Seq, want)
		}
	}
	if err := c2.Ack(subID2, 8); err != nil {
		t.Fatal(err)
	}
	_ = got
	refused := b.Stats().Refused
	if refused != 0 {
		t.Fatalf("acked refusals = %d, want 0", refused)
	}
}

// TestClientDedupsRedelivery: a slow consumer triggers redelivery; the
// client must not surface duplicate sequences.
func TestClientDedupsRedelivery(t *testing.T) {
	b := New()
	defer b.Close()
	b.RedeliveryBackoff = resilience.Backoff{Initial: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	subID, ch, err := c.SubscribeSession("dd/#", "sess", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("dd/x", []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	m := collectSeqs(t, ch, 1)[0]
	// Sit on the message long enough for several redelivery sweeps, then ack.
	time.Sleep(150 * time.Millisecond)
	select {
	case d := <-ch:
		t.Fatalf("duplicate surfaced to consumer: seq %d", d.Seq)
	default:
	}
	if err := c.Ack(subID, m.Seq); err != nil {
		t.Fatal(err)
	}
	redelivered := b.Stats().Redelivered
	if redelivered == 0 {
		t.Fatal("expected broker-side redeliveries while unacked")
	}
}

// ackedSub returns the broker's subscription behind an acked session id.
func ackedSub(t *testing.T, b *Broker, id int) *subscription {
	t.Helper()
	b.subMu.Lock()
	s := b.subs[id]
	b.subMu.Unlock()
	if s == nil || s.ack == nil {
		t.Fatalf("subscription %d is not an acked session", id)
	}
	return s
}

// TestRedeliveryArmAckAllocatesNothing: every ack that empties the window
// stops the redelivery timer and the pump arms it again for the next
// message in flight. The subscription's one timer is Reset, so the cycle
// allocates nothing once the first arm has made it.
func TestRedeliveryArmAckAllocatesNothing(t *testing.T) {
	b := New()
	defer b.Close()
	b.RedeliveryBackoff = resilience.Backoff{Initial: time.Minute, Max: time.Minute}
	id, _, err := b.SubscribeOpts("arm/ack", SubOptions{Acked: true, Session: "arm-ack"})
	if err != nil {
		t.Fatal(err)
	}
	s := ackedSub(t, b, id)
	allocs := testing.AllocsPerRun(200, func() {
		s.mu.Lock()
		s.armRedeliveryLocked()
		s.mu.Unlock()
		b.Ack(id, 1)
	})
	if allocs != 0 {
		t.Errorf("arm → ack: %v allocs per cycle, want 0", allocs)
	}
}

// TestStaleRedeliveryFireKeepsCursor: a fire whose arm was since stopped,
// or stopped and armed again, must not rewind the delivery cursor — that
// would redeliver a message that is inside its ack deadline.
func TestStaleRedeliveryFireKeepsCursor(t *testing.T) {
	b := New()
	defer b.Close()
	b.RedeliveryBackoff = resilience.Backoff{Initial: time.Minute, Max: time.Minute}
	id, ch, err := b.SubscribeOpts("stale/fire", SubOptions{Acked: true, Session: "stale-fire"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("stale/fire", []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	collectSeqs(t, ch, 1) // in flight: the pump armed the timer a minute out
	s := ackedSub(t, b, id)
	cursor := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.ack.cursor
	}
	want := cursor()

	s.redeliver() // the fire of an earlier arm, re-armed since: due is ahead
	s.mu.Lock()
	s.ack.stopTimerLocked()
	s.mu.Unlock()
	s.redeliver() // the fire of an arm an ack stopped
	if got := cursor(); got != want {
		t.Errorf("cursor = %d after stale fires, want %d", got, want)
	}
	if redelivered := b.Stats().Redelivered; redelivered != 0 {
		t.Errorf("redelivered = %d after stale fires, want 0", redelivered)
	}
}
