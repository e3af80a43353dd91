package opcua

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestWriteRawMatchesWrite: a raw scalar in json.Marshal's encoding, written
// through the handle, leaves the node exactly as Write(id, V(decoded
// scalar)) does — same type, same bytes, same notification.
func TestWriteRawMatchesWrite(t *testing.T) {
	s := NewAddressSpace()
	viaHandle, err := s.AddVariable(s.Root(), NewNodeID(1, "handle"), "handle", "Double", V(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewNodeID(1, "ref")
	if _, err := s.AddVariable(s.Root(), ref, "ref", "Double", V(nil), nil); err != nil {
		t.Fatal(err)
	}
	handleItem, _ := s.Subscribe(viaHandle.ID, 1)
	refItem, _ := s.Subscribe(ref, 1)
	for _, raw := range []string{
		`1`, `0`, `-0`, `1e-7`, `1e+21`, `42`, `-3.25`, `true`, `false`, `null`,
		`""`, `"idle"`, `"a \"quoted\" \\ value"`, `"\u003ctag\u003e"`, `"1"`, `"true"`,
	} {
		var decoded any
		if err := json.Unmarshal([]byte(raw), &decoded); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(ref, V(decoded)); err != nil {
			t.Fatal(err)
		}
		buf := []byte(raw)
		if err := viaHandle.WriteRaw(buf); err != nil {
			t.Fatalf("WriteRaw(%s): %v", raw, err)
		}
		buf[0] = '!' // the caller's buffer is its own again
		want, _ := s.Read(ref)
		got, _ := s.Read(viaHandle.ID)
		if !got.Equal(want) {
			t.Errorf("WriteRaw(%s) stored %s %s, Write(V(decoded)) stored %s %s", raw, got.Type, got.Value, want.Type, want.Value)
		}
		dc := next(t, handleItem)
		rc := next(t, refItem)
		if !dc.Value.Equal(rc.Value) || dc.Seq != rc.Seq {
			t.Errorf("WriteRaw(%s) notified %s %s seq %d, Write notified %s %s seq %d",
				raw, dc.Value.Type, dc.Value.Value, dc.Seq, rc.Value.Type, rc.Value.Value, rc.Seq)
		}
	}
	// Rewriting the stored value is not a change.
	if err := viaHandle.WriteRaw([]byte(`"true"`)); err != nil {
		t.Fatal(err)
	}
	if dcs := queued(handleItem); len(dcs) != 0 {
		t.Errorf("unchanged value notified: %+v", dcs)
	}
	// The same bytes under another type are a change: "true" was a string.
	if err := viaHandle.WriteRaw([]byte(`true`)); err != nil {
		t.Fatal(err)
	}
	if dc := next(t, handleItem); dc.Value.Type != "Boolean" {
		t.Errorf("type change notified as %s", dc.Value.Type)
	}

	for _, raw := range []string{``, `{"a":1}`, `[1]`, ` 1`, `x`} {
		if err := viaHandle.WriteRaw([]byte(raw)); err == nil {
			t.Errorf("WriteRaw(%q) succeeded", raw)
		}
	}
	obj, _ := s.AddObject(s.Root(), NewNodeID(1, "obj"), "obj", nil)
	if err := obj.WriteRaw([]byte(`1`)); err == nil {
		t.Error("WriteRaw on an object node succeeded")
	}
}

func TestWriteRawUnchangedAllocatesNothing(t *testing.T) {
	s := NewAddressSpace()
	n, _ := s.AddVariable(s.Root(), NewNodeID(1, "v"), "v", "Double", V(nil), nil)
	_, _ = s.Subscribe(n.ID, 1)
	raw := []byte(`12.5`)
	if err := n.WriteRaw(raw); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = n.WriteRaw(raw) }); allocs != 0 {
		t.Errorf("unchanged WriteRaw allocates %v objects, want 0", allocs)
	}
}

// TestIdleMonitoredItemCostsUnderAKilobyte: a monitored item whose variable
// never changes holds a header and a wake-up channel, no queue storage — a
// plant subscribes every variable it models, and most of them are quiet or
// kept up with.
func TestIdleMonitoredItemCostsUnderAKilobyte(t *testing.T) {
	s := NewAddressSpace()
	n, _ := s.AddVariable(s.Root(), NewNodeID(1, "v"), "v", "Double", V(nil), nil)
	const items = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < items; i++ {
		if _, err := s.Subscribe(n.ID, 64); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perItem := (after.TotalAlloc - before.TotalAlloc) / items; perItem >= 1<<10 {
		t.Errorf("an idle monitored item costs %d B, want < 1 KB", perItem)
	}
}

// TestKeptUpMonitoredItemAllocatesOnlyTheValue: once the queue has found the
// depth its consumer needs, a changed value costs its one copy (WriteRaw's)
// and the notification nothing.
func TestKeptUpMonitoredItemAllocatesOnlyTheValue(t *testing.T) {
	s := NewAddressSpace()
	n, _ := s.AddVariable(s.Root(), NewNodeID(1, "v"), "v", "Double", V(nil), nil)
	item, _ := s.Subscribe(n.ID, 64)
	raws := [][]byte{[]byte(`1.5`), []byte(`2.5`)}
	i := 0
	var buf []DataChange
	change := func() {
		i++
		if err := n.WriteRaw(raws[i%2]); err != nil {
			t.Fatal(err)
		}
		var ok bool
		if buf, ok = item.Next(buf[:0]); !ok || len(buf) != 1 {
			t.Fatal("no notification")
		}
	}
	change()
	if allocs := testing.AllocsPerRun(200, change); allocs != 1 {
		t.Errorf("a changed value with a kept-up monitor allocates %v objects, want 1 (the value)", allocs)
	}
}

// TestUnsubscribeWakesABlockedNext: the item's puller — Server.handle waits
// for it on teardown — is released by Unsubscribe, after draining what was
// queued.
func TestUnsubscribeWakesABlockedNext(t *testing.T) {
	s := NewAddressSpace()
	n, _ := s.AddVariable(s.Root(), NewNodeID(1, "v"), "v", "Int64", V(0), nil)
	item, _ := s.Subscribe(n.ID, 4)
	got := make(chan []uint64, 1)
	go func() {
		var seqs []uint64
		var buf []DataChange
		for {
			var ok bool
			buf, ok = item.Next(buf[:0])
			if !ok {
				got <- seqs
				return
			}
			for _, dc := range buf {
				seqs = append(seqs, dc.Seq)
			}
		}
	}()
	for i := 1; i <= 3; i++ {
		_ = s.Write(n.ID, V(i))
	}
	s.Unsubscribe(item.ID())
	_ = s.Write(n.ID, V(99)) // nobody is subscribed any more
	select {
	case seqs := <-got:
		if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
			t.Errorf("the puller saw seqs %v before the end, want [1 2 3]", seqs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after Unsubscribe")
	}
}

// TestNotifyWalksOnlyTheNodesMonitors: a change reaches the monitors of its
// node and no other, and each monitor numbers its own notifications — shed
// ones included — whatever happens to its neighbours.
func TestNotifyWalksOnlyTheNodesMonitors(t *testing.T) {
	s := NewAddressSpace()
	a, _ := s.AddVariable(s.Root(), NewNodeID(1, "a"), "a", "Int64", V(0), nil)
	b, _ := s.AddVariable(s.Root(), NewNodeID(1, "b"), "b", "Int64", V(0), nil)
	roomy, _ := s.Subscribe(a.ID, 16)
	tight, _ := s.Subscribe(a.ID, 2)
	other, _ := s.Subscribe(b.ID, 16)

	const writes = 7
	for i := 1; i <= writes; i++ {
		if err := s.Write(a.ID, V(i)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(m *Monitor) (seqs []uint64) {
		for _, dc := range queued(m) {
			seqs = append(seqs, dc.Seq)
		}
		return seqs
	}
	if got := drain(roomy); len(got) != writes || got[0] != 1 || got[writes-1] != writes {
		t.Errorf("roomy monitor saw seqs %v, want 1..%d", got, writes)
	}
	// The 2-slot monitor shed the oldest five, and the numbers show it.
	if got := drain(tight); len(got) != 2 || got[0] != writes-1 || got[1] != writes {
		t.Errorf("tight monitor saw seqs %v, want [%d %d]", got, writes-1, writes)
	}
	if got := drain(other); len(got) != 0 {
		t.Errorf("node b's monitor was notified of node a's changes: %v", got)
	}

	// Dropping one of a's monitors leaves the other two lists as they were.
	s.Unsubscribe(tight.ID())
	if _, open := tight.Next(nil); open {
		t.Error("unsubscribed item still delivers")
	}
	_ = s.Write(a.ID, V(100))
	_ = b.WriteRaw([]byte(`5`))
	if got := drain(roomy); len(got) != 1 || got[0] != writes+1 {
		t.Errorf("roomy monitor after its neighbour left: seqs %v, want [%d]", got, writes+1)
	}
	if got := drain(other); len(got) != 1 || got[0] != 1 {
		t.Errorf("node b's first change: seqs %v, want [1]", got)
	}
	if len(a.monitors) != 1 || len(b.monitors) != 1 || len(s.monitors) != 2 {
		t.Errorf("monitor indexes out of step: a=%d b=%d all=%d", len(a.monitors), len(b.monitors), len(s.monitors))
	}
}

// queued takes everything the monitor holds right now.
func queued(m *Monitor) []DataChange {
	out, _ := m.take(nil)
	return out
}

// next waits for the one change a one-node monitor is expected to hold.
func next(t *testing.T, m *Monitor) DataChange {
	t.Helper()
	dcs, ok := m.Next(nil)
	if !ok || len(dcs) != 1 {
		t.Fatalf("Next = %v, %v; want one change", dcs, ok)
	}
	return dcs[0]
}
