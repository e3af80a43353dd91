package opcua

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestServer(t *testing.T) (*Server, *AddressSpace) {
	t.Helper()
	space := NewAddressSpace()
	srv := NewServer("test-server", space)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, space
}

func dialTest(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAddressSpaceHierarchy(t *testing.T) {
	s := NewAddressSpace()
	obj := NewNodeID(1, "EMCO")
	if _, err := s.AddObject(s.Root(), obj, "EMCO", nil); err != nil {
		t.Fatal(err)
	}
	v := NewNodeID(1, "EMCO", "actualX")
	if _, err := s.AddVariable(obj, v, "actualX", "Double", V(1.5), map[string]string{"category": "AxesPositions"}); err != nil {
		t.Fatal(err)
	}
	info, err := s.Browse(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Children) != 1 || info.Children[0] != v {
		t.Errorf("children = %v", info.Children)
	}
	got, err := s.Read(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsFloat() != 1.5 {
		t.Errorf("value = %v", got)
	}
}

func TestAddressSpaceErrors(t *testing.T) {
	s := NewAddressSpace()
	if _, err := s.AddObject("ns=9;s=missing", NewNodeID(1, "x"), "x", nil); err == nil {
		t.Error("want error for missing parent")
	}
	obj := NewNodeID(1, "a")
	if _, err := s.AddObject(s.Root(), obj, "a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddObject(s.Root(), obj, "a", nil); err == nil {
		t.Error("want error for duplicate id")
	}
	if _, err := s.Read(obj); err == nil {
		t.Error("want error reading an Object node")
	}
	if err := s.Write(NewNodeID(1, "nope"), V(1)); err == nil {
		t.Error("want error writing missing node")
	}
	if _, err := s.Call(obj, nil); err == nil {
		t.Error("want error calling non-method")
	}
}

func TestServerReadWriteRoundTrip(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "v")
	if _, err := space.AddVariable(space.Root(), id, "v", "Double", V(0.0), nil); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	if err := c.Write(id, V(42.5)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsFloat() != 42.5 {
		t.Errorf("read = %v, want 42.5", got)
	}
	// Server-side read agrees.
	direct, _ := space.Read(id)
	if direct.AsFloat() != 42.5 {
		t.Errorf("server value = %v", direct)
	}
}

func TestServerCall(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "sum")
	_, err := space.AddMethod(space.Root(), id, "sum", func(args []Variant) ([]Variant, error) {
		total := 0.0
		for _, a := range args {
			total += a.AsFloat()
		}
		return []Variant{V(total)}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	results, err := c.Call(id, V(1.0), V(2.0), V(3.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].AsFloat() != 6.5 {
		t.Errorf("results = %v", results)
	}
}

func TestServerCallError(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "fail")
	_, err := space.AddMethod(space.Root(), id, "fail", func([]Variant) ([]Variant, error) {
		return nil, fmt.Errorf("machine jammed")
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, srv)
	if _, err := c.Call(id); err == nil || !strings.Contains(err.Error(), "machine jammed") {
		t.Errorf("err = %v, want machine jammed", err)
	}
}

func TestBrowseTree(t *testing.T) {
	srv, space := newTestServer(t)
	obj := NewNodeID(1, "M")
	space.AddObject(space.Root(), obj, "M", nil)
	for i := 0; i < 5; i++ {
		space.AddVariable(obj, NewNodeID(1, "M", fmt.Sprintf("v%d", i)), fmt.Sprintf("v%d", i), "Double", V(0.0), nil)
	}
	c := dialTest(t, srv)
	nodes, err := c.BrowseTree("")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 7 { // root + object + 5 vars
		t.Errorf("tree size = %d, want 7", len(nodes))
	}
}

func TestSubscription(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "temp")
	space.AddVariable(space.Root(), id, "temp", "Double", V(20.0), nil)
	c := dialTest(t, srv)
	_, ch, err := c.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := space.Write(id, V(20.0+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	timeout := time.After(2 * time.Second)
	for len(got) < 3 {
		select {
		case chg := <-ch:
			got = append(got, chg.Value.AsFloat())
		case <-timeout:
			t.Fatalf("timed out; got %v", got)
		}
	}
	want := []float64{21, 22, 23}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("notification %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSubscriptionNoEchoOnEqualWrite(t *testing.T) {
	_, space := newTestServer(t)
	id := NewNodeID(1, "v")
	space.AddVariable(space.Root(), id, "v", "Double", V(1.0), nil)
	item, err := space.Subscribe(id, 4)
	if err != nil {
		t.Fatal(err)
	}
	space.Write(id, V(1.0)) // unchanged: no notification
	if chg := queued(item); len(chg) != 0 {
		t.Errorf("unexpected notification %v for unchanged value", chg)
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "v")
	space.AddVariable(space.Root(), id, "v", "Double", V(0.0), nil)
	c := dialTest(t, srv)
	subID, ch, err := c.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(subID); err != nil {
		t.Fatal(err)
	}
	space.Write(id, V(9.0))
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("received notification after unsubscribe")
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, space := newTestServer(t)
	const n = 8
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NewNodeID(1, fmt.Sprintf("v%d", i))
		space.AddVariable(space.Root(), ids[i], "v", "Int64", V(0), nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				if err := c.Write(ids[i], V(j)); err != nil {
					errs <- err
					return
				}
				if _, err := c.Read(ids[i]); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestVariantRoundTripProperty(t *testing.T) {
	f := func(s string, d float64, b bool, i int64) bool {
		if d != d { // skip NaN: JSON cannot carry it
			return true
		}
		return V(s).AsString() == s &&
			V(d).AsFloat() == d &&
			V(b).AsBool() == b &&
			V(i).AsFloat() == float64(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountByClass(t *testing.T) {
	s := NewAddressSpace()
	obj := NewNodeID(1, "o")
	s.AddObject(s.Root(), obj, "o", nil)
	s.AddVariable(obj, NewNodeID(1, "o", "v"), "v", "Double", V(0.0), nil)
	s.AddMethod(obj, NewNodeID(1, "o", "m"), "m", nil, nil)
	objects, variables, methods := s.CountByClass()
	if objects != 2 || variables != 1 || methods != 1 { // root + o
		t.Errorf("counts = %d/%d/%d", objects, variables, methods)
	}
}

func TestClientErrorsAfterServerClose(t *testing.T) {
	srv, space := newTestServer(t)
	id := NewNodeID(1, "v")
	space.AddVariable(space.Root(), id, "v", "Double", V(0.0), nil)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	// Requests eventually fail rather than hang.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Read(id); err != nil {
			return
		}
	}
	t.Error("reads kept succeeding after server close")
}
