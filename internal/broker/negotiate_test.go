package broker

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

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

// nonUTF8 would be mangled by any accidental string round trip and padded
// by base64 in JSON — byte equality across the wire proves the binary
// payload path is raw end to end.
var nonUTF8 = []byte{0x00, 0xB7, 0xFF, 0xFE, 0x80, 0x01, 0x00, 0xB7}

// TestNegotiateMatrix drives every framing pairing between a publisher and
// a subscriber through one broker and asserts byte-correct delivery. The
// broker itself stays binary-capable; ForceJSON clients model pre-binary
// peers that ignore the advert.
func TestNegotiateMatrix(t *testing.T) {
	for _, tc := range []struct{ pubJSON, subJSON bool }{
		{false, false},
		{false, true},
		{true, false},
		{true, true},
	} {
		name := fmt.Sprintf("pubJSON=%v/subJSON=%v", tc.pubJSON, tc.subJSON)
		t.Run(name, func(t *testing.T) {
			b := New()
			if err := b.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			sub, err := DialClientWith(b.Addr(), ClientOptions{ForceJSON: tc.subJSON})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			_, ch, err := sub.Subscribe("neg/#")
			if err != nil {
				t.Fatal(err)
			}

			pub, err := DialClientWith(b.Addr(), ClientOptions{ForceJSON: tc.pubJSON})
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()

			if err := pub.Publish("neg/raw", nonUTF8, false); err != nil {
				t.Fatal(err)
			}
			m := recvMsg(t, ch, "delivery")
			if m.Topic != "neg/raw" || !bytes.Equal(m.Payload, nonUTF8) {
				t.Errorf("payload mangled across %s: % x", name, m.Payload)
			}

			// Retained replay crosses the same framing boundary.
			if err := pub.Publish("neg/retained", nonUTF8, true); err != nil {
				t.Fatal(err)
			}
			recvMsg(t, ch, "retained delivery")
			wantBin := uint64(0)
			if !tc.pubJSON {
				wantBin++
			}
			if !tc.subJSON {
				wantBin++
			}
			// A connection counts as binary once the broker has read the
			// client's binary hello, which the subscriber's writer flushes on
			// its own schedule: wait for the count, do not sample it.
			deadline := time.Now().Add(5 * time.Second)
			binConns, jsonConns := b.WireStats()
			for binConns != wantBin && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				binConns, jsonConns = b.WireStats()
			}
			if binConns != wantBin {
				t.Errorf("WireStats binary = %d, want %d (json=%d)", binConns, wantBin, jsonConns)
			}
		})
	}
}

// TestNegotiateForceJSONBroker: a broker pinned to JSON (a pre-binary
// broker) must interoperate with new clients — the clients never see an
// advert and stay on JSON framing.
func TestNegotiateForceJSONBroker(t *testing.T) {
	b := New()
	b.ForceJSON = true
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	sub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	_, ch, err := sub.Subscribe("neg/#")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("neg/x", nonUTF8, false); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, ch, "delivery")
	if !bytes.Equal(m.Payload, nonUTF8) {
		t.Errorf("payload mangled: % x", m.Payload)
	}
	if binConns, _ := b.WireStats(); binConns != 0 {
		t.Errorf("ForceJSON broker counted %d binary conns", binConns)
	}
}

// TestNegotiateReattachAcrossFramings: an acked session attached over one
// framing, severed, and reattached over the other must replay exactly the
// unacked suffix — the session state is framing-agnostic.
func TestNegotiateReattachAcrossFramings(t *testing.T) {
	for _, tc := range []struct {
		name              string
		firstJSON, reJSON bool
	}{
		{"binary-then-json", false, true},
		{"json-then-binary", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := New()
			if err := b.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			c1, err := DialClientWith(b.Addr(), ClientOptions{ForceJSON: tc.firstJSON})
			if err != nil {
				t.Fatal(err)
			}
			subID, ch, err := c1.SubscribeSession("re/#", "sess", 0)
			if err != nil {
				t.Fatal(err)
			}

			pub, err := DialClient(b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			for i := 1; i <= 5; i++ {
				if err := pub.Publish("re/x", []byte(fmt.Sprintf("m%d", i)), false); err != nil {
					t.Fatal(err)
				}
			}
			var seqs []uint64
			for i := 0; i < 5; i++ {
				m := recvMsg(t, ch, "first attach")
				seqs = append(seqs, m.Seq)
			}
			// Ack through seq 3 (piggybacked on binary connections), then
			// sever without acking 4 and 5.
			if err := c1.Ack(subID, seqs[2]); err != nil {
				t.Fatal(err)
			}
			// An ack is fire-and-forget; give it one publish roundtrip on the
			// same connection to land before severing.
			if err := pub.Publish("re/flush", []byte("f"), false); err != nil {
				t.Fatal(err)
			}
			recvMsg(t, ch, "flush delivery")
			c1.Close()

			c2, err := DialClientWith(b.Addr(), ClientOptions{ForceJSON: tc.reJSON})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			_, ch2, err := c2.SubscribeSession("re/#", "sess", seqs[2])
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for i := 0; i < 3; i++ { // m4, m5, flush
				got = append(got, string(recvMsg(t, ch2, "replay").Payload))
			}
			want := []string{"m4", "m5", "f"}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("replay after %s = %v, want %v", tc.name, got, want)
				}
			}
		})
	}
}

// TestPiggybackAckAdvancesWindow: on a binary connection, Client.Ack rides
// the frame header (QueueAck) — the broker must still advance the session
// window so a bounded-window session never stalls.
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
