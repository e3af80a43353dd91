package opcua

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// TestNotificationSequencing: each monitor numbers its notifications 1, 2,
// 3, ... and a shed notification still consumes a number, so the gap is
// visible downstream.
func TestNotificationSequencing(t *testing.T) {
	s := NewAddressSpace()
	id := NewNodeID(1, "M", "v")
	if _, err := s.AddVariable(s.Root(), id, "v", "Int64", V(0), nil); err != nil {
		t.Fatal(err)
	}
	item, err := s.Subscribe(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Overflow the 2-slot buffer: 5 writes with nobody draining. The
	// drop-oldest policy sheds changes, but every one consumes a seq.
	for i := 1; i <= 5; i++ {
		if err := s.Write(id, V(i)); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	for _, dc := range queued(item) {
		seqs = append(seqs, dc.Seq)
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 5 {
		t.Fatalf("seqs = %v, want the final change (seq 5) retained", seqs)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seqs not increasing: %v", seqs)
		}
	}
}

// TestClientLostCountsServerSheds: a slow client consumer sees the gap the
// server's shedding created, via Client.Lost, and what both ends shed is
// the oldest: the stream still ends on the variable's final value.
func TestClientLostCountsServerSheds(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "M", "v")
	if _, err := space.AddVariable(space.Root(), id, "v", "Int64", V(0), nil); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	_, ch, err := c.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}

	// Burst far past the server-side monitor buffer (64) with the client
	// unable to keep up; some notifications must be shed.
	const writes = 5000
	for i := 1; i <= writes; i++ {
		if err := space.Write(id, V(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Drain until the stream goes quiet.
	var got int
	var lastSeq uint64
	var last Variant
	deadline := time.After(5 * time.Second)
	for {
		select {
		case dc := <-ch:
			got++
			if dc.Seq <= lastSeq {
				t.Fatalf("non-increasing seq %d after %d", dc.Seq, lastSeq)
			}
			lastSeq, last = dc.Seq, dc.Value
		case <-time.After(300 * time.Millisecond):
			goto done
		case <-deadline:
			goto done
		}
	}
done:
	if !last.Equal(V(writes)) {
		t.Errorf("the stream ended on %s, want the final value %d", last.Value, writes)
	}
	if got == writes {
		t.Skip("no shedding occurred; cannot exercise the gap counter")
	}
	// Gaps are observable up to the highest seq actually delivered; anything
	// shed after lastSeq never reaches the client to be counted.
	if lost := c.Lost(); lost == 0 {
		t.Fatalf("received %d of %d notifications but Lost() = 0", got, writes)
	} else if want := lastSeq - uint64(got); lost < want {
		t.Errorf("Lost() = %d, want >= %d (gaps below the last delivered seq)", lost, want)
	}
}

// serveSubscribeThenNotify is a server that answers a subscribe and, in the
// same write, pushes the item's first notification numbered firstSeq: what a
// variable changing right behind the acknowledgement (and a burst shed
// before the puller first ran, for firstSeq > 1) looks like on the wire,
// without the timing.
func serveSubscribeThenNotify(t *testing.T, firstSeq uint64) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := wire.NewReader(conn)
		for {
			var req Message
			if err := r.ReadFrame(&req); err != nil {
				return
			}
			// Stage both frames, then send them in one conn.Write.
			var out bytes.Buffer
			w := wire.NewWriter(&out)
			_ = w.WriteFrame(&Message{ID: req.ID, Op: req.Op, OK: true, SubID: 7})
			if req.Op == OpSubscribe {
				v := V(42)
				_ = w.WriteFrame(&Message{Op: OpNotify, NodeID: req.NodeID, Value: &v, SubID: 7, Seq: firstSeq, OK: true})
			}
			if err := w.Flush(); err != nil {
				return
			}
			if _, err := conn.Write(out.Bytes()); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestSubscribeDeliversChangeBehindTheAck: a notification that reaches the
// client directly behind the subscribe acknowledgement is delivered. The
// read loop handles it before Subscribe's caller runs again, so the monitor
// has to be registered by the read loop, with the acknowledgement; a value
// that changes once and then rests would otherwise never arrive.
func TestSubscribeDeliversChangeBehindTheAck(t *testing.T) {
	c, err := Dial(serveSubscribeThenNotify(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	subID, ch, err := c.Subscribe(NewNodeID(1, "M", "v"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case dc := <-ch:
		if dc.SubID != subID || dc.Seq != 1 || !dc.Value.Equal(V(42)) {
			t.Errorf("got %+v, want seq 1 of subscription %d with value 42", dc, subID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the notification sent right behind the subscribe ack never arrived")
	}
	if lost := c.Lost(); lost != 0 {
		t.Errorf("Lost() = %d with nothing shed", lost)
	}
}

// TestLostCountsWhatWasShedBeforeTheFirstNotification: a monitored item
// numbers from 1, so a stream that opens on seq 101 has lost 100 — a burst
// the server shed before its puller first ran is counted in full.
func TestLostCountsWhatWasShedBeforeTheFirstNotification(t *testing.T) {
	c, err := Dial(serveSubscribeThenNotify(t, 101))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, ch, err := c.Subscribe(NewNodeID(1, "M", "v"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no notification")
	}
	if lost := c.Lost(); lost != 100 {
		t.Errorf("Lost() = %d after a stream that opened on seq 101, want 100", lost)
	}
}
