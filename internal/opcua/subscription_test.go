package opcua

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// listVariables adds n Int64 variables v0..v(n-1) to space.
func listVariables(t *testing.T, space *AddressSpace, n int) []NodeID {
	t.Helper()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NewNodeID(1, "M", fmt.Sprintf("v%d", i))
		if _, err := space.AddVariable(space.Root(), ids[i], fmt.Sprintf("v%d", i), "Int64", V(0), nil); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestBurstShedsOnlyItsItemsOldest: a burst of 200 changes on one node of a
// 50-node subscription, with nobody taking, sheds that item's oldest changes
// and nothing else. Every other node's pending change arrives, the burst's
// newest 64 arrive in order, and Lost() is exactly what was shed, whichever
// end shed it.
func TestBurstShedsOnlyItsItemsOldest(t *testing.T) {
	srv, space := newTestServer(t)
	const nodes, burst = 50, 200
	ids := listVariables(t, space, nodes)
	c := dialTest(t, srv)
	sub, err := c.SubscribeNodes(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nodes; i++ {
		if err := space.Write(ids[i], V(i)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= burst; v++ {
		if err := space.Write(ids[0], V(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the read loop has seen every item's last notification.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		seen := sub.items[0].next == burst+1
		for i := 1; i < nodes; i++ {
			seen = seen && sub.items[i].next == 2
		}
		c.mu.Unlock()
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the subscription's notifications never all reached the client")
		}
		time.Sleep(time.Millisecond)
	}

	changes, open := sub.Take(nil)
	if !open {
		t.Fatal("subscription closed")
	}
	var burstSeqs []uint64
	others := map[int]DataChange{}
	for _, dc := range changes {
		i := sub.Index(dc)
		if i < 0 || i >= nodes || dc.NodeID != ids[i] {
			t.Fatalf("change %+v maps to item %d", dc, i)
		}
		if i == 0 {
			burstSeqs = append(burstSeqs, dc.Seq)
			continue
		}
		if _, dup := others[i]; dup {
			t.Errorf("node %d delivered twice", i)
		}
		others[i] = dc
	}
	const kept = subscribeDepth
	if len(burstSeqs) != kept || burstSeqs[0] != burst-kept+1 || burstSeqs[kept-1] != burst {
		t.Errorf("the burst delivered seqs %v, want its newest %d (%d..%d)", burstSeqs, kept, burst-kept+1, burst)
	}
	for i := 1; i < len(burstSeqs); i++ {
		if burstSeqs[i] != burstSeqs[i-1]+1 {
			t.Fatalf("the burst's kept changes are out of order or gapped: %v", burstSeqs)
		}
	}
	for i := 1; i < nodes; i++ {
		if dc, ok := others[i]; !ok || dc.Seq != 1 || !dc.Value.Equal(V(i)) {
			t.Errorf("node %d delivered %+v (present %v), want its one change to %d", i, dc, ok, i)
		}
	}
	if lost := c.Lost(); lost != burst-kept {
		t.Errorf("Lost() = %d, want the %d the burst shed", lost, burst-kept)
	}
}

// TestSubscribeListWithUnknownNodeRegistersNothing: a list is taken whole
// or not at all — one unknown node (or one that is not a variable) fails the
// request, the error names it, and the server's monitor table and every
// node's list are as they were.
func TestSubscribeListWithUnknownNodeRegistersNothing(t *testing.T) {
	srv, space := newTestServer(t)
	ids := listVariables(t, space, 3)
	obj := NewNodeID(1, "obj")
	if _, err := space.AddObject(space.Root(), obj, "obj", nil); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	ghost := NewNodeID(1, "M", "ghost")
	for _, bad := range []NodeID{ghost, obj} {
		list := []NodeID{ids[0], ids[1], bad, ids[2]}
		if _, err := c.SubscribeNodes(list); err == nil || !strings.Contains(err.Error(), string(bad)) {
			t.Errorf("subscribe %v: err = %v, want one naming %s", list, err, bad)
		}
	}
	if _, err := c.SubscribeNodes(nil); err == nil {
		t.Error("an empty list subscribed")
	}
	space.subMu.Lock()
	defer space.subMu.Unlock()
	if len(space.monitors) != 0 || space.nextSub != 0 {
		t.Errorf("refused lists left %d monitors and used %d item IDs", len(space.monitors), space.nextSub)
	}
	for _, id := range ids {
		if n := space.nodes[id]; len(n.monitors) != 0 {
			t.Errorf("node %s holds %d items after refused lists", id, len(n.monitors))
		}
	}
}

// serveListSubscribeThenNotify is serveSubscribeThenNotify for a list: it
// acknowledges a subscribe of n nodes with items 7..7+n-1 and, in the same
// write, pushes the first notification of the last item.
func serveListSubscribeThenNotify(t *testing.T) (addr string) {
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
			var out bytes.Buffer
			w := wire.NewWriter(&out)
			_ = w.WriteFrame(&Message{ID: req.ID, Op: req.Op, OK: true, SubID: 7})
			if n := len(req.NodeIDs); req.Op == OpSubscribe && n > 0 {
				v := V(42)
				_ = w.WriteFrame(&Message{Op: OpNotify, NodeID: req.NodeIDs[n-1], Value: &v, SubID: 7 + n - 1, Seq: 1, OK: true})
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

// TestSubscribeNodesDeliversChangeBehindTheAck: the list form of
// TestSubscribeDeliversChangeBehindTheAck — a notification directly behind
// the acknowledgement, for the list's last item, is delivered to that item.
func TestSubscribeNodesDeliversChangeBehindTheAck(t *testing.T) {
	c, err := Dial(serveListSubscribeThenNotify(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := []NodeID{NewNodeID(1, "M", "a"), NewNodeID(1, "M", "b"), NewNodeID(1, "M", "c")}
	sub, err := c.SubscribeNodes(ids)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID() != 7 {
		t.Fatalf("subscription ID %d, want the acknowledged 7", sub.ID())
	}
	select {
	case <-sub.Ready():
	case <-time.After(2 * time.Second):
		t.Fatal("the notification sent right behind the subscribe ack never arrived")
	}
	changes, _ := sub.Take(nil)
	if len(changes) != 1 || sub.Index(changes[0]) != len(ids)-1 || changes[0].NodeID != ids[len(ids)-1] || !changes[0].Value.Equal(V(42)) {
		t.Errorf("got %+v, want item %d's change to 42", changes, len(ids)-1)
	}
	if lost := c.Lost(); lost != 0 {
		t.Errorf("Lost() = %d with nothing shed", lost)
	}
}

// TestSubscriptionEndsWithTheConnection: when the connection drops, Ready
// is closed and Take reports the end after handing out what was queued.
func TestSubscriptionEndsWithTheConnection(t *testing.T) {
	srv, space := newTestServer(t)
	ids := listVariables(t, space, 2)
	c := dialTest(t, srv)
	sub, err := c.SubscribeNodes(ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Write(ids[1], V(5)); err != nil {
		t.Fatal(err)
	}
	<-sub.Ready()
	srv.Close()
	var got []DataChange
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case <-sub.Ready():
		case <-deadline:
			t.Fatal("the subscription outlived its connection")
		}
		got, open = sub.Take(got)
	}
	if len(got) != 1 || sub.Index(got[0]) != 1 {
		t.Errorf("handed out %+v before the end, want item 1's one change", got)
	}
}
