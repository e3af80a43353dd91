package broker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

func TestMatchTopic(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b", false},
		{"a/b", "a/b/c", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/x/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true}, // MQTT: the multi-level wildcard matches the parent level
		{"a/#", "b", false},
		{"#", "anything/at/all", true},
		{"+", "one", true},
		{"+", "one/two", false},
		{"factory/+/+/+/values/#", "factory/line1/wc02/emco/values/AxesPositions/actualX", true},
		{"factory/+/+/+/values/#", "factory/line1/wc02/emco/services/is_ready", false},
	}
	for _, c := range cases {
		if got := MatchTopic(c.filter, c.topic); got != c.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func TestValidateFilter(t *testing.T) {
	for _, ok := range []string{"a/b", "+/b", "a/#", "#", "+"} {
		if err := ValidateFilter(ok); err != nil {
			t.Errorf("ValidateFilter(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "a/#/b", "a/b#", "a/+x/c"} {
		if err := ValidateFilter(bad); err == nil {
			t.Errorf("ValidateFilter(%q) = nil, want error", bad)
		}
	}
}

// TestMatchTopicAllocatesNothing: retained replay runs MatchTopic against
// every retained topic on each subscribe, and every subscribe
// validates its filter, so neither may allocate on the success path.
func TestMatchTopicAllocatesNothing(t *testing.T) {
	const filter = "factory/+/+/+/values/#"
	topics := []string{
		"factory/line1/wc02/emco/values/Axes/actualX",
		"factory/line1/wc02/emco/services/is_ready/response",
		"factory/line1",
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, topic := range topics {
			MatchTopic(filter, topic)
		}
		if ValidateFilter(filter) != nil {
			t.Fatal("filter refused")
		}
	})
	if allocs != 0 {
		t.Errorf("MatchTopic + ValidateFilter: %v allocs per run, want 0", allocs)
	}
}

func TestMatchExactProperty(t *testing.T) {
	f := func(segs []string) bool {
		var clean []string
		for _, s := range segs {
			s = strings.Map(func(r rune) rune {
				if r == '/' || r == '+' || r == '#' || r == 0 {
					return 'x'
				}
				return r
			}, s)
			if s == "" {
				s = "s"
			}
			clean = append(clean, s)
		}
		if len(clean) == 0 {
			return true
		}
		topic := strings.Join(clean, "/")
		// A topic always matches itself and "#".
		return MatchTopic(topic, topic) && MatchTopic("#", topic)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInProcessPubSub(t *testing.T) {
	b := New()
	defer b.Close()
	_, ch, err := b.Subscribe("sensors/+")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("sensors/temp", []byte(`21.5`), false); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("other/x", []byte(`1`), false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if m.Topic != "sensors/temp" || string(m.Payload) != "21.5" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("no message")
	}
	select {
	case m := <-ch:
		t.Errorf("unexpected second message %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestRetainedMessages(t *testing.T) {
	b := New()
	defer b.Close()
	if err := b.Publish("state/mode", []byte(`"auto"`), true); err != nil {
		t.Fatal(err)
	}
	_, ch, err := b.Subscribe("state/#")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if !m.Retained || string(m.Payload) != `"auto"` {
			t.Errorf("retained replay = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("retained message not replayed")
	}
	// Clearing with empty payload stops future replays.
	if err := b.Publish("state/mode", nil, true); err != nil {
		t.Fatal(err)
	}
	_, ch2, _ := b.Subscribe("state/#")
	select {
	case m := <-ch2:
		if m.Retained && len(m.Payload) > 0 {
			t.Errorf("cleared retained message replayed: %+v", m)
		}
	case <-time.After(50 * time.Millisecond):
	}
}

// TestRetainedReplayExactlyOnce pins what the index does for filters
// whose first level is a wildcard: they match retained topics under any
// first level, and every subscriber gets each retained message once. The
// racing case also covers the store-and-match of a retained publish being
// one step, so a "#" subscriber registering meanwhile gets the message
// either from its replay or from the publish, never from both.
func TestRetainedReplayExactlyOnce(t *testing.T) {
	t.Run("filters", func(t *testing.T) {
		b := New()
		defer b.Close()
		retained := map[string]string{
			"a/x":                    `"ax"`,
			"b/y":                    `"by"`,
			"factory/l/w/m/values/v": `{"value":1}`,
		}
		for topic, payload := range retained {
			if err := b.Publish(topic, []byte(payload), true); err != nil {
				t.Fatal(err)
			}
		}
		// replayed reads until the channel has been quiet for 100 ms, acking
		// acked messages so that no redelivery can pass for a duplicate.
		replayed := func(id int, ch <-chan Message) map[string][]string {
			got := map[string][]string{}
			for {
				select {
				case m := <-ch:
					if !m.Retained {
						t.Errorf("%s replayed without the retained flag", m.Topic)
					}
					got[m.Topic] = append(got[m.Topic], string(m.Payload))
					if m.Seq != 0 {
						b.Ack(id, m.Seq)
					}
				case <-time.After(100 * time.Millisecond):
					return got
				}
			}
		}
		for _, c := range []struct {
			filter string
			opts   SubOptions
			want   []string
		}{
			{"#", SubOptions{}, []string{"a/x", "b/y", "factory/l/w/m/values/v"}},
			{"+/y", SubOptions{}, []string{"b/y"}},
			{"#", SubOptions{Acked: true, Session: "replay"}, []string{"a/x", "b/y", "factory/l/w/m/values/v"}},
		} {
			id, ch, err := b.SubscribeOpts(c.filter, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := replayed(id, ch)
			if len(got) != len(c.want) {
				t.Errorf("%q (acked %v): replayed %v, want %v", c.filter, c.opts.Acked, got, c.want)
			}
			for _, topic := range c.want {
				if p := got[topic]; len(p) != 1 || p[0] != retained[topic] {
					t.Errorf("%q (acked %v): %s replayed as %q, want [%s] once", c.filter, c.opts.Acked, topic, p, retained[topic])
				}
			}
		}
	})

	t.Run("racing-subscribe", func(t *testing.T) {
		b := New()
		defer b.Close()
		stop := make(chan struct{})
		var pubWG sync.WaitGroup
		for p := 0; p < 4; p++ {
			pubWG.Add(1)
			go func(p int) {
				defer pubWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					// Every payload is unique, so a payload seen twice was
					// delivered twice.
					topic := fmt.Sprintf("r%d/wc%d/value", i%8, p)
					_ = b.Publish(topic, []byte(fmt.Sprintf("%d-%d", p, i)), true)
				}
			}(p)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 50; round++ {
					id, ch, err := b.Subscribe("#")
					if err != nil {
						t.Error(err)
						return
					}
					seen := map[string]int{}
					for k := 0; k < 64; k++ {
						seen[string((<-ch).Payload)]++
					}
					b.Unsubscribe(id)
					for m := range ch {
						seen[string(m.Payload)]++
					}
					for payload, n := range seen {
						if n > 1 {
							t.Errorf("a # subscriber received retained payload %s %d times", payload, n)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		pubWG.Wait()
	})
}

func TestPublishInvalidTopic(t *testing.T) {
	b := New()
	defer b.Close()
	for _, topic := range []string{"", "a/+", "a/#"} {
		if err := b.Publish(topic, []byte(`1`), false); err == nil {
			t.Errorf("Publish(%q) should fail", topic)
		}
	}
}

func TestTCPPubSub(t *testing.T) {
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
	pub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	_, ch, err := sub.Subscribe("factory/#")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("factory/wc02/emco/actualX", []byte(`12.25`), false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if m.Topic != "factory/wc02/emco/actualX" || string(m.Payload) != "12.25" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no message over TCP")
	}
}

func TestTCPUnsubscribe(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, ch, err := c.Subscribe("x/#")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("x/y", []byte(`1`), false); err != nil {
		t.Fatal(err)
	}
	select {
	case m, ok := <-ch:
		if ok {
			t.Errorf("message after unsubscribe: %+v", m)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestRequestReply(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Responder echoes requests onto the reply topic.
	responder, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()
	_, reqCh, err := responder.Subscribe("svc/is_ready/request")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for m := range reqCh {
			_ = responder.Publish("svc/is_ready/response", append([]byte(`{"ok":true,"req":`), append(m.Payload, '}')...), false)
		}
	}()

	caller, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	reply, err := caller.Request("svc/is_ready/request", "svc/is_ready/response", []byte(`1`), nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != `{"ok":true,"req":1}` {
		t.Errorf("reply = %s", reply)
	}
}

// TestRequestFailsFastOnLostConnection: a call waiting when the broker
// dies, and every call after it on the connection — including one on a
// response topic whose subscription the client kept — fails at once
// instead of waiting out its timeout or spinning on the closed channel.
func TestRequestFailsFastOnLostConnection(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	responder, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()
	_, reqCh, err := responder.Subscribe("svc/echo/request")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for m := range reqCh {
			_ = responder.PublishAsync("svc/echo/response", m.Payload, false)
		}
	}()
	caller, err := DialClientTimeout(b.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	if _, err := caller.Request("svc/echo/request", "svc/echo/response", []byte(`1`), nil, time.Second); err != nil {
		t.Fatal(err)
	}

	const timeout, prompt = 10 * time.Second, 2 * time.Second
	call := func(topic string) (time.Duration, error) {
		start := time.Now()
		_, err := caller.Request(topic+"/request", topic+"/response", []byte(`2`), nil, timeout)
		return time.Since(start), err
	}
	waiting := make(chan error, 1)
	var waited time.Duration
	go func() {
		var err error
		waited, err = call("svc/silent") // nobody answers
		waiting <- err
	}()
	time.Sleep(50 * time.Millisecond)
	b.Close()
	if err := <-waiting; err == nil || waited > prompt {
		t.Errorf("call waiting as the broker died: %v after %v", err, waited)
	}
	for _, topic := range []string{"svc/echo", "svc/echo", "svc/other"} {
		if took, err := call(topic); err == nil || took > prompt {
			t.Errorf("%s after the broker died: %v after %v", topic, err, took)
		}
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := New()
	defer b.Close()
	_, ch, err := b.Subscribe("load/#")
	if err != nil {
		t.Fatal(err)
	}
	const publishers, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = b.Publish(fmt.Sprintf("load/p%d", p), []byte(`1`), false)
			}
		}(p)
	}
	done := make(chan struct{})
	var received int
	go func() {
		defer close(done)
		for {
			select {
			case <-ch:
				received++
				if received == publishers*each {
					return
				}
			case <-time.After(300 * time.Millisecond):
				return // stream went quiet
			}
		}
	}()
	wg.Wait()
	<-done
	// The broker's contract is drop-oldest for slow consumers, so exact
	// delivery is not guaranteed under load; the counters must be
	// consistent though, and nothing may deadlock.
	if received == 0 || received > publishers*each {
		t.Errorf("received %d, want 1..%d", received, publishers*each)
	}
	st := b.Stats()
	pub, delivered := st.Published, st.Delivered
	if pub != publishers*each {
		t.Errorf("published counter = %d, want %d", pub, publishers*each)
	}
	if delivered < uint64(received) {
		t.Errorf("delivered counter %d < received %d", delivered, received)
	}
}

func TestCloseClosesSubscriberChannels(t *testing.T) {
	b := New()
	_, ch, err := b.Subscribe("a/#")
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Error("channel not closed on broker close")
	}
	if err := b.Publish("a/b", []byte(`1`), false); err == nil {
		t.Error("publish after close should fail")
	}
}

// TestSubscribeUnsubscribeChurn: concurrent subscribe/unsubscribe while a
// publisher fires must not race or panic (regression for the
// close-during-deliver race).
func TestSubscribeUnsubscribeChurn(t *testing.T) {
	b := New()
	defer b.Close()

	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.Publish("churn/x", []byte(`1`), false)
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, ch, err := b.Subscribe("churn/#")
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-ch:
				default:
				}
				b.Unsubscribe(id)
			}
		}()
	}
	wg.Wait()
	close(stop)
	pubWG.Wait()
	if subs := b.Stats().Subscriptions; subs != 0 {
		t.Errorf("leaked %d subscriptions", subs)
	}
}

// recvMsg pulls one message with a timeout.
func recvMsg(t *testing.T, ch <-chan Message, what string) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatalf("%s: channel closed", what)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
	panic("unreachable")
}

// TestRawPayloadByteForByte: a payload that is not UTF-8 (and holds the
// frame magic) crosses publisher → broker → subscriber byte for byte, live
// and as a retained replay — any string round trip on the path would
// mangle it.
func TestRawPayloadByteForByte(t *testing.T) {
	raw := []byte{0x00, 0xB7, 0xFF, 0xFE, 0x80, 0x01, 0x00, 0xB7}
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
	_, ch, err := sub.Subscribe("raw/#")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := pub.Publish("raw/live", raw, false); err != nil {
		t.Fatal(err)
	}
	if m := recvMsg(t, ch, "live delivery"); m.Topic != "raw/live" || !bytes.Equal(m.Payload, raw) {
		t.Errorf("live payload mangled: %q % x", m.Topic, m.Payload)
	}
	if err := pub.Publish("raw/retained", raw, true); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, ch, "retained delivery")
	late, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	_, lateCh, err := late.Subscribe("raw/retained")
	if err != nil {
		t.Fatal(err)
	}
	if m := recvMsg(t, lateCh, "retained replay"); !m.Retained || !bytes.Equal(m.Payload, raw) {
		t.Errorf("retained replay mangled: retained=%v % x", m.Retained, m.Payload)
	}
}

// TestPiggybackAckAdvancesWindow: Client.Ack rides the frame header
// (QueueAck) — the broker must still advance the session window so a
// bounded-window session never stalls.
func TestPiggybackAckAdvancesWindow(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	subID, ch, err := c.SubscribeSession("w/#", "winsess", 0)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Publish well past the default window; progress requires the
	// piggybacked acks to actually land broker-side.
	const n = 2000
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			if err := pub.Publish("w/x", []byte("v"), false); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 1; i <= n; i++ {
		m := recvMsg(t, ch, fmt.Sprintf("message %d", i))
		if err := c.Ack(subID, m.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServerRefusesNonFrame: bytes that do not open with the frame magic —
// here a length-prefixed JSON frame — get no answer; the broker closes the
// connection.
func TestServerRefusesNonFrame(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	assertRefusesNonFrame(t, b.Addr())
}

func assertRefusesNonFrame(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 2, '{', '}'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after a non-frame (read % x)", got)
	}
	if len(got) != 0 {
		t.Errorf("server answered a non-frame with % x", got)
	}
}

// TestDecodeMsgFrameAllocs: a msg frame whose topic the connection sent
// before decodes with one allocation, its payload (margin 0: copying the
// topic cost one more).
func TestDecodeMsgFrameAllocs(t *testing.T) {
	sent := frame{Op: opMsg, SubID: 3, Seq: 41, Topic: "factory/line1/wc02/emco/values/Axes/load",
		Payload: []byte(`{"machine":"emco","variable":"load","value":1.5}`)}
	body := sent.AppendBinaryBody(nil)
	var topics wire.Interner
	var f frame
	decode := func() {
		f = frame{topics: &topics}
		if err := f.DecodeBinaryBody(bopMsg, body); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(200, decode); n != 1 {
		t.Errorf("decoding a msg frame with a seen topic allocates %.1f objects, want 1", n)
	}
	if f.Topic != sent.Topic || f.SubID != 3 || f.Seq != 41 || !bytes.Equal(f.Payload, sent.Payload) {
		t.Errorf("decoded %+v", f)
	}
}

// TestTopicInternUnderHostilePeer: one connection publishes more distinct
// topics than a connection's intern table holds, and one topic longer
// than it holds. Every message arrives under its own topic, the receiving
// connection's table stops at its bound, and the broker keeps serving
// another connection throughout.
func TestTopicInternUnderHostilePeer(t *testing.T) {
	b := New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dial := func() *Client {
		c, err := DialClient(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	hostile, sub, other := dial(), dial(), dial()
	_, ch, err := sub.Subscribe("flood/#")
	if err != nil {
		t.Fatal(err)
	}
	_, otherCh, err := other.Subscribe("plant/ok")
	if err != nil {
		t.Fatal(err)
	}
	receive := func(ch <-chan Message, topic string) {
		t.Helper()
		select {
		case m := <-ch:
			if m.Topic != topic {
				t.Fatalf("message published on %.40q arrived on %.40q", topic, m.Topic)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message on %.40q never arrived", topic)
		}
	}

	topics := []string{"flood/" + strings.Repeat("x", wire.InternMaxLen)}
	for i := 0; i < wire.InternMaxEntries+100; i++ {
		topics = append(topics, fmt.Sprintf("flood/%d", i))
	}
	topics = append(topics, topics[0], topics[1]) // repeats read from the full table
	for i, topic := range topics {
		if err := hostile.Publish(topic, []byte("x"), false); err != nil {
			t.Fatal(err)
		}
		receive(ch, topic)
		if i%1000 == 0 {
			if err := other.Publish("plant/ok", []byte("y"), false); err != nil {
				t.Fatal(err)
			}
			receive(otherCh, "plant/ok")
		}
	}
	// The receive above orders the read loop's last table write before this.
	if n := sub.topics.Len(); n != wire.InternMaxEntries {
		t.Errorf("the subscriber connection's table holds %d topics, want its bound %d", n, wire.InternMaxEntries)
	}
}
