package historian

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestQueryAggregateCached(t *testing.T) {
	st := NewStore(0)
	q := NewQueryServer()
	q.Register("h", st)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 600; i++ {
		st.Append("m", base.Add(time.Duration(i)*100*time.Millisecond), []byte("2.5"))
	}
	from, to := base, base.Add(30*time.Second)
	first, err := q.Aggregate("h", "m", from, to, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 30 {
		t.Fatalf("got %d windows, want 30", len(first))
	}
	for _, w := range first {
		if w.Count != 10 || w.Mean != 2.5 {
			t.Fatalf("window %+v, want count 10 mean 2.5", w)
		}
	}
	h0, m0 := q.CacheStats()
	second, err := q.Aggregate("h", "m", from, to, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := q.CacheStats()
	if h1-h0 != 30 || m1 != m0 {
		t.Fatalf("repeat query: %d hits %d misses, want 30 hits 0 misses", h1-h0, m1-m0)
	}
	if fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("cached result differs:\n%v\n%v", second, first)
	}
}

// TestQueryCacheCorrectUnderMutation is the invalidation proof: every
// cached answer must equal a fresh AggregateWindow computation, across
// in-order appends, out-of-order appends, block seals and retention drops.
func TestQueryCacheCorrectUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := NewStore(700) // tight bound: retention churns during the test
	q := NewQueryServer()
	q.Register("h", st)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	cur := base
	for i := 0; i < 4000; i++ {
		cur = cur.Add(time.Duration(rng.Intn(200)) * time.Millisecond)
		ts := cur
		if rng.Intn(25) == 0 {
			ts = cur.Add(-time.Duration(rng.Intn(3000)) * time.Millisecond)
		}
		st.Append("m", ts, []byte(fmt.Sprintf("%d.5", rng.Intn(50))))
		if i%37 != 0 {
			continue
		}
		span := cur.Sub(base) + time.Second
		from := base.Add(time.Duration(rng.Int63n(int64(span))))
		to := from.Add(time.Duration(rng.Int63n(int64(20 * time.Second))))
		window := []time.Duration{time.Second, 10 * time.Second, 7 * time.Second}[rng.Intn(3)]
		got, err := q.Aggregate("h", "m", from, to, window)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range got {
			want, _, werr := st.AggregateWindow("m", w.Start, w.End)
			if werr != nil {
				t.Fatalf("window [%v,%v): cached %+v but recompute says empty", w.Start, w.End, w)
			}
			if w.Count != want.Count || w.Min != want.Min || w.Max != want.Max || w.Mean != want.Mean {
				t.Fatalf("window [%v,%v): cached {c:%d min:%v max:%v mean:%v}, recompute %+v",
					w.Start, w.End, w.Count, w.Min, w.Max, w.Mean, want)
			}
		}
	}
	hits, misses := q.CacheStats()
	if hits == 0 {
		t.Fatalf("cache never hit (hits=%d misses=%d) — invalidation is too aggressive", hits, misses)
	}
	t.Logf("cache: %d hits, %d misses", hits, misses)
}

// TestQueryAggregateInvertedRange pins the reversed-bounds fix: to <= from
// must yield an empty result (no panic from a negative slice capacity, no
// wrap-around on the hit counter), both through the library API and the
// HTTP handler.
func TestQueryAggregateInvertedRange(t *testing.T) {
	st := NewStore(0)
	q := NewQueryServer()
	q.Register("h", st)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		st.Append("m", base.Add(time.Duration(i)*time.Second), []byte("2.5"))
	}
	cases := []struct{ from, to time.Time }{
		{base.Add(30 * time.Second), base},                // inverted
		{base, base},                                      // empty
		{base.Add(time.Hour), base.Add(time.Hour)},        // empty, in the future
		{base.Add(365 * 24 * time.Hour), time.Unix(0, 0)}, // far future from, epoch to
	}
	for _, c := range cases {
		wins, err := q.Aggregate("h", "m", c.from, c.to, time.Second)
		if err != nil {
			t.Fatalf("Aggregate(%v, %v): %v", c.from, c.to, err)
		}
		if len(wins) != 0 {
			t.Fatalf("Aggregate(%v, %v) = %v, want empty", c.from, c.to, wins)
		}
	}
	if hits, _ := q.CacheStats(); hits != 0 {
		t.Fatalf("empty-range queries recorded %d cache hits, want 0", hits)
	}

	srv := httptest.NewServer(q.Handler())
	defer srv.Close()
	from := base.Add(30 * time.Second).Format(time.RFC3339Nano)
	to := base.Format(time.RFC3339Nano)
	resp, err := http.Get(srv.URL + "/aggregate?series=m&from=" + from + "&to=" + to)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reversed bounds: status %d, want 200 with empty windows", resp.StatusCode)
	}
	var out struct {
		Windows []WindowAggregate `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Windows) != 0 {
		t.Fatalf("reversed bounds returned windows: %v", out.Windows)
	}
}

func TestQueryHTTPEndpoints(t *testing.T) {
	st := NewStore(0)
	q := NewQueryServer()
	q.Register("h", st)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		st.Append("cell/m1/actualX", base.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d.5", i)))
	}
	st.Append("cell/m1/state", base, []byte(`{"state":"RUNNING"}`))
	srv := httptest.NewServer(q.Handler())
	defer srv.Close()

	get := func(path string, want int) map[string]any {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return out
	}

	series := get("/series?store=h", 200)["series"].([]any)
	if len(series) != 2 {
		t.Fatalf("series = %v, want 2 names", series)
	}
	// Single registered store: the store parameter may be omitted.
	if got := get("/series", 200)["series"].([]any); len(got) != 2 {
		t.Fatalf("default store series = %v", got)
	}

	from := base.Format(time.RFC3339Nano)
	to := base.Add(10 * time.Second).Format(time.RFC3339Nano)
	rangeOut := get("/range?series=cell/m1/actualX&from="+from+"&to="+to, 200)
	if pts := rangeOut["points"].([]any); len(pts) != 10 {
		t.Fatalf("range returned %d points, want 10", len(pts))
	}

	aggOut := get("/aggregate?series=cell/m1/actualX&from="+from+"&to="+to+"&window=2s", 200)
	wins := aggOut["windows"].([]any)
	if len(wins) != 5 {
		t.Fatalf("aggregate returned %d windows, want 5: %v", len(wins), aggOut)
	}
	w0 := wins[0].(map[string]any)
	if w0["count"].(float64) != 2 || w0["mean"].(float64) != 1.0 {
		t.Fatalf("first window %v, want count 2 mean 1.0 (values 0.5, 1.5)", w0)
	}

	get("/series?store=nope", 404)
	get("/range?series=missing", 200) // unknown series: empty result, not an error
	get("/range", 400)                // missing series parameter
	get("/aggregate?series=cell/m1/actualX&window=bogus", 400)
	get("/aggregate?series=cell/m1/actualX&from="+from+"&to="+to+"&window=1ns", 400) // too many windows
	if stats := get("/stats", 200); stats["stores"].([]any)[0] != "h" {
		t.Fatalf("stats = %v", stats)
	}
}

func TestQueryServeAndClose(t *testing.T) {
	q := NewQueryServer()
	st := NewStore(0)
	st.Append("m", time.Now(), []byte("1.5"))
	q.Register("h", st)
	addr, err := q.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/series?store=h")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/series"); err == nil {
		t.Fatal("server still reachable after Close")
	}
	if err := q.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

func TestQueryUnregisteredStore(t *testing.T) {
	q := NewQueryServer()
	st := NewStore(0)
	q.Register("a", st)
	q.Register("b", NewStore(0))
	// Two stores: the empty name no longer resolves.
	if _, err := q.Aggregate("", "m", time.Unix(0, 0), time.Now(), time.Second); err == nil {
		t.Fatal("ambiguous default store must error")
	}
	q.Unregister("b")
	st.Append("m", time.Unix(100, 0), []byte("1.5"))
	if _, err := q.Aggregate("", "m", time.Unix(0, 0), time.Unix(200, 0), time.Second); err != nil {
		t.Fatalf("single remaining store should resolve by default: %v", err)
	}
}

// TestRangeResultDoesNotAlias pins the satellite fix: mutating a returned
// payload must not corrupt the store.
func TestRangeResultDoesNotAlias(t *testing.T) {
	st := NewStore(0)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	st.Append("m", base, []byte(`{"value":1.5}`))
	pts := st.Range("m", time.Time{}, base.Add(time.Hour))
	for i := range pts[0].Payload {
		pts[0].Payload[i] = 'X'
	}
	again := st.Range("m", time.Time{}, base.Add(time.Hour))
	if string(again[0].Payload) != `{"value":1.5}` {
		t.Fatalf("store corrupted through Range result: %q", again[0].Payload)
	}
	lat, err := st.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := range lat.Payload {
		lat.Payload[i] = 'Y'
	}
	if again, _ := st.Latest("m"); string(again.Payload) != `{"value":1.5}` {
		t.Fatalf("store corrupted through Latest result: %q", again.Payload)
	}
}

// TestQueryConcurrentReadersUnderIngest is the race-detector companion of
// BenchmarkHistorianQuery: readers on the cached path while a writer
// ingests and seals.
func TestQueryConcurrentReadersUnderIngest(t *testing.T) {
	st := NewStore(0)
	q := NewQueryServer()
	q.Register("h", st)
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 2*blockSize; i++ {
		st.Append("m", base.Add(time.Duration(i)*10*time.Millisecond), []byte("2.5"))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				wins, err := q.Aggregate("h", "m", base, base.Add(5*time.Second), time.Second)
				if err != nil {
					t.Errorf("aggregate: %v", err)
					return
				}
				for _, w := range wins {
					if w.Count == 0 || w.Mean != 2.5 {
						t.Errorf("window %+v, want mean 2.5", w)
						return
					}
				}
			}
		}()
	}
	for i := 2 * blockSize; i < 5*blockSize; i++ {
		st.Append("m", base.Add(time.Duration(i)*10*time.Millisecond), []byte("2.5"))
	}
	close(stop)
	wg.Wait()
}

// parseInstantBefore is parseInstant as it was before the integer fast
// path: RFC 3339 first, then a %d scan that must print back to the input.
func parseInstantBefore(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	var nanos int64
	if _, err := fmt.Sscanf(s, "%d", &nanos); err == nil && fmt.Sprintf("%d", nanos) == s {
		return time.Unix(0, nanos), nil
	}
	return time.Time{}, errors.New("want RFC3339 or unix nanoseconds")
}

// TestParseInstantMatchesBefore pins which bounds parseInstant accepts and
// the instant it reads against the scan-based parser it replaced.
func TestParseInstantMatchesBefore(t *testing.T) {
	for _, s := range []string{
		"0", "1", "-1", "1700000000123456789", "-1700000000123456789",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"-0", "00", "01", "-01", "+1", "+0", " 1", "1 ", "1a", "a1", "", "-", "--1", "1_000", "0x10", "1e9",
		"2026-10-18T04:16:53Z", "2026-10-18T04:16:53.123456789+02:00", "2026-10-18", "2026-10-18T04:16:53",
		"20261018", "١٢٣",
	} {
		got, err := parseInstant(s)
		want, wantErr := parseInstantBefore(s)
		if (err == nil) != (wantErr == nil) || !got.Equal(want) || got.Location().String() != want.Location().String() {
			t.Errorf("parseInstant(%q) = %v, %v; before: %v, %v", s, got, err, want, wantErr)
		}
	}
}
