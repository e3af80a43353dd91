package opcua

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestSubscriptionChurn: concurrent subscribe/unsubscribe while writers
// publish must neither deadlock nor leak monitors.
func TestSubscriptionChurn(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "churn")
	node, err := space.AddVariable(space.Root(), id, "churn", "Double", V(0.0), nil)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				i++
				if i%2 == 0 { // both write paths notify through the node's list
					_ = space.Write(id, V(float64(i)))
				} else {
					_ = node.WriteRaw(strconv.AppendInt(nil, int64(i), 10))
				}
			}
		}
	}()

	const churners = 6
	var wg sync.WaitGroup
	errs := make(chan error, churners)
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for round := 0; round < 20; round++ {
				subID, ch, err := client.Subscribe(id)
				if err != nil {
					errs <- err
					return
				}
				// Consume at most briefly, then unsubscribe.
				select {
				case <-ch:
				case <-time.After(10 * time.Millisecond):
				}
				if err := client.Unsubscribe(subID); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No monitors may leak: after all clients unsubscribed (and closed),
	// a write must not block and the space must be monitor-free.
	deadline := time.Now().Add(2 * time.Second)
	for {
		space.subMu.Lock()
		n := len(space.monitors) + len(node.monitors) // both indexes
		space.subMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d monitors leaked", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestManySubscribersFanOut: one write fans out to many subscribers.
func TestManySubscribersFanOut(t *testing.T) {
	_, space := newTestServer(t)
	id := NewNodeID(1, "fan")
	if _, err := space.AddVariable(space.Root(), id, "fan", "Int64", V(0), nil); err != nil {
		t.Fatal(err)
	}
	const n = 32
	items := make([]*Monitor, n)
	for i := range items {
		item, err := space.Subscribe(id, 4)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = item
	}
	if err := space.Write(id, V(7)); err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		if chg := queued(item); len(chg) != 1 || chg[0].Value.AsFloat() != 7 {
			t.Errorf("subscriber %d got %v, want the one change to 7", i, chg)
		}
	}
}

// TestBrowseMetadataRoundTrip: modeled metadata survives the wire.
func TestBrowseMetadataRoundTrip(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "meta")
	meta := map[string]string{"category": "AxesPositions", "direction": "out", "topic": "a/b/c"}
	if _, err := space.AddVariable(space.Root(), id, "meta", "Double", V(0.0), meta); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	info, err := c.Browse(id)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range meta {
		if info.Metadata[k] != v {
			t.Errorf("metadata[%s] = %q, want %q", k, info.Metadata[k], v)
		}
	}
	if info.DataType != "Double" || info.Class != "Variable" {
		t.Errorf("info = %+v", info)
	}
}

// TestCallConcurrency: concurrent method calls through one client multiplex
// correctly (responses match requests).
func TestCallConcurrency(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "echo")
	_, err := space.AddMethod(space.Root(), id, "echo", func(args []Variant) ([]Variant, error) {
		return args, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			out, err := c.Call(id, V(want))
			if err != nil {
				errs <- err
				return
			}
			if len(out) != 1 || out[0].AsString() != want {
				errs <- fmt.Errorf("call %d: got %v", i, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
