package opcua

import (
	"testing"
	"time"
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
	_, ch, err := s.Subscribe(id, 2)
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
	for {
		select {
		case dc := <-ch:
			seqs = append(seqs, dc.Seq)
			continue
		default:
		}
		break
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
