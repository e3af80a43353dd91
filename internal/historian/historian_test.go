package historian

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
)

var t0 = time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)

func TestAppendAndRange(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Append("m/x", t0.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d", i)))
	}
	if s.Count("m/x") != 10 {
		t.Fatalf("count = %d", s.Count("m/x"))
	}
	pts := s.Range("m/x", t0.Add(2*time.Second), t0.Add(5*time.Second))
	if len(pts) != 3 {
		t.Fatalf("range len = %d, want 3", len(pts))
	}
	if string(pts[0].Payload) != "2" || string(pts[2].Payload) != "4" {
		t.Errorf("range = %v..%v", string(pts[0].Payload), string(pts[2].Payload))
	}
}

func TestLatest(t *testing.T) {
	s := NewStore(0)
	if _, err := s.Latest("none"); err == nil {
		t.Error("want error for empty series")
	}
	s.Append("a", t0, []byte("1"))
	s.Append("a", t0.Add(time.Second), []byte("2"))
	p, err := s.Latest("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "2" {
		t.Errorf("latest = %s", p.Payload)
	}
}

func TestOutOfOrderInsert(t *testing.T) {
	s := NewStore(0)
	s.Append("a", t0.Add(2*time.Second), []byte("2"))
	s.Append("a", t0, []byte("0"))
	s.Append("a", t0.Add(time.Second), []byte("1"))
	pts := s.Range("a", t0, t0.Add(3*time.Second))
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	for i, want := range []string{"0", "1", "2"} {
		if string(pts[i].Payload) != want {
			t.Errorf("pts[%d] = %s, want %s", i, pts[i].Payload, want)
		}
	}
}

func TestRetentionBound(t *testing.T) {
	s := NewStore(5)
	for i := 0; i < 20; i++ {
		s.Append("a", t0.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d", i)))
	}
	if s.Count("a") != 5 {
		t.Fatalf("count = %d, want 5 (retention)", s.Count("a"))
	}
	p, _ := s.Latest("a")
	if string(p.Payload) != "19" {
		t.Errorf("latest after retention = %s", p.Payload)
	}
	if s.TotalAppended() != 20 {
		t.Errorf("total appended = %d", s.TotalAppended())
	}
}

func TestAggregateRange(t *testing.T) {
	s := NewStore(0)
	for i := 1; i <= 4; i++ {
		s.Append("a", t0.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d.0", i)))
	}
	agg, err := s.AggregateRange("a", t0, t0.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 4 || agg.Min != 1 || agg.Max != 4 || agg.Mean != 2.5 {
		t.Errorf("agg = %+v", agg)
	}
	if _, err := s.AggregateRange("a", t0.Add(time.Hour), t0.Add(2*time.Hour)); err != ErrNoNumericData {
		t.Errorf("err = %v, want ErrNoNumericData", err)
	}
}

func TestPointFloatFromObject(t *testing.T) {
	p := Point{Payload: []byte(`{"value": 3.5, "type": "Double"}`)}
	f, ok := p.Float()
	if !ok || f != 3.5 {
		t.Errorf("Float = %v, %v", f, ok)
	}
	p = Point{Payload: []byte(`{"value": "7.25"}`)}
	f, ok = p.Float()
	if !ok || f != 7.25 {
		t.Errorf("Float from string = %v, %v", f, ok)
	}
	p = Point{Payload: []byte(`"not numeric"`)}
	if _, ok := p.Float(); ok {
		t.Error("non-numeric payload should not parse")
	}
}

func TestRangeOrderedProperty(t *testing.T) {
	f := func(offsets []int8) bool {
		s := NewStore(0)
		for _, off := range offsets {
			s.Append("a", t0.Add(time.Duration(off)*time.Second), []byte("0"))
		}
		pts := s.Range("a", t0.Add(-200*time.Second), t0.Add(200*time.Second))
		if len(pts) != len(offsets) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Time.Before(pts[i-1].Time) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestServiceIngestsFromBroker(t *testing.T) {
	b := broker.New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	svc, err := NewAckedService(b.Addr(), "h", []string{"factory/#"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	pub, err := broker.DialClient(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	for i := 0; i < 5; i++ {
		if err := pub.Publish("factory/wc02/emco/actualX", []byte(fmt.Sprintf("%d.5", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Store.Count("factory/wc02/emco/actualX") == 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Store.Count("factory/wc02/emco/actualX"); got != 5 {
		t.Fatalf("stored %d points, want 5", got)
	}
	agg, err := svc.Store.AggregateRange("factory/wc02/emco/actualX", t0.Add(-100*time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 5 || agg.Min != 0.5 || agg.Max != 4.5 {
		t.Errorf("agg = %+v", agg)
	}
}

func TestServiceBadSubscription(t *testing.T) {
	b := broker.New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := NewAckedService(b.Addr(), "h", []string{"bad/#/filter"}, nil); err == nil {
		t.Error("want error for invalid filter")
	}
}

// TestFailedServiceLeavesNoPump fails construction on the second topic
// while the first topic's session is replaying a backlog. Once the
// constructor has returned its error, the caller's store must not grow any
// more and no pump may be left running.
func TestFailedServiceLeavesNoPump(t *testing.T) {
	b := broker.New()
	if err := b.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Open the session once, so the broker queues for it while detached.
	svc, err := NewAckedService(b.Addr(), "h", []string{"factory/#"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	buf := make([]byte, 1<<20)
	pumpRunning := func() bool {
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("historian.(*Service).pumpAcked"))
	}
	payload := []byte("1.5")
	for run := 0; run < 100; run++ {
		for i := 0; i < 5000; i++ {
			if err := b.Publish("factory/l1/wc01/m1/x", payload, false); err != nil {
				t.Fatal(err)
			}
		}
		store := NewStore(0)
		if _, err := NewAckedService(b.Addr(), "h", []string{"factory/#", "bad/#/filter"}, store); err == nil {
			t.Fatal("want error for invalid filter")
		}
		appended := store.TotalAppended()
		time.Sleep(time.Millisecond)
		if got := store.TotalAppended(); got != appended {
			t.Fatalf("run %d: store grew from %d to %d after the constructor failed", run, appended, got)
		}
		// A pump that has signalled its exit may still be unwinding its
		// frame; give it a moment, but no more.
		for deadline := time.Now().Add(time.Second); pumpRunning(); {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: a pump outlived the failed constructor", run)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestAppendBatchAllocs guards the volatile append: 64 bridge-shaped
// samples into series that already exist, with no seal, cost one payload
// copy each. Budget: 64 plus a 10 % margin.
func TestAppendBatchAllocs(t *testing.T) {
	st := NewStore(0)
	samples := bridgeSamples(64, 8)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	// 25 batches put 200 points in each series' head; the 6 measured
	// batches add 48 more, short of a seal at blockSize.
	i := 0
	for ; i < 25; i++ {
		st.AppendBatch(base.Add(time.Duration(i)*time.Millisecond), samples)
	}
	allocs := testing.AllocsPerRun(5, func() {
		i++
		st.AppendBatch(base.Add(time.Duration(i)*time.Millisecond), samples)
	})
	if got := st.Count(samples[0].Series); got >= blockSize {
		t.Fatalf("series holds %d points: a block sealed during the measurement", got)
	}
	if allocs > 70 {
		t.Fatalf("AppendBatch of 64 samples: %v allocs, budget 70", allocs)
	}
}
