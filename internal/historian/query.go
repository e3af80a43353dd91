package historian

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// QueryServer is the historian serving tier: an HTTP API over one or more
// registered stores with a lock-free per-window aggregate cache.
//
//	GET /series?store=h                          list series names
//	GET /range?store=h&series=s&from=..&to=..    raw points (RFC3339 bounds)
//	GET /aggregate?store=h&series=s&from=..&to=..&window=10s
//	                                             per-window min/max/avg/count
//	GET /stats                                   cache hit/miss counters
//
// Aggregate results are cached per (store, series, window-start, width),
// tagged with the series' settled-history generation: entries survive until
// a block seal, an out-of-order append or a rollup eviction bumps the
// generation, and only windows wholly behind the series' cacheability
// boundary — where in-order appends can no longer land — are cached at all.
// Retention drops invalidate only scan-backed entries (rollup-backed
// aggregates are drop-insensitive by construction, see rollup.go), so a
// dashboard fleet polling settled windows stays on the cached path while
// chaos ingest runs.
type QueryServer struct {
	mu     sync.RWMutex
	stores map[string]*Store

	cache   sync.Map // aggCacheKey -> *aggCacheEntry, queryCacheKey -> *queryCacheEntry
	entries atomic.Int64
	hits    atomic.Uint64
	misses  atomic.Uint64

	httpSrv *http.Server
	ln      net.Listener
}

// cacheMaxEntries bounds the window cache; exceeding it flushes the whole
// cache (entries rebuild on the next read).
const cacheMaxEntries = 1 << 16

// maxWindowsPerQuery bounds how many windows one /aggregate call may span.
const maxWindowsPerQuery = 4096

type aggCacheKey struct {
	store  string
	series string
	start  int64 // window start, unix nanos
	width  time.Duration
}

type aggCacheEntry struct {
	gen        uint64
	drops      uint64
	rollupOnly bool
	agg        Aggregate
	empty      bool // window held no numeric data
}

// queryCacheKey caches a fully-settled query's assembled result (the key
// type distinguishes it from per-window entries in the shared map).
type queryCacheKey struct {
	store  string
	series string
	first  int64 // first window index
	last   int64 // one past the last window index
	width  time.Duration
}

type queryCacheEntry struct {
	gen        uint64
	drops      uint64
	rollupOnly bool // every window was rollup-backed: drop-insensitive
	windows    []WindowAggregate
}

// NewQueryServer creates an empty query server; registers stores with
// Register.
func NewQueryServer() *QueryServer {
	return &QueryServer{stores: map[string]*Store{}}
}

// Register exposes a store under name, replacing any previous registration
// (a restarted historian re-registers its recovered store).
func (q *QueryServer) Register(name string, st *Store) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stores[name] = st
}

// Unregister removes a store; in-flight queries against it finish.
func (q *QueryServer) Unregister(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.stores, name)
}

func (q *QueryServer) store(name string) (*Store, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if name == "" && len(q.stores) == 1 {
		for _, st := range q.stores {
			return st, true
		}
	}
	st, ok := q.stores[name]
	return st, ok
}

// StoreNames lists registered stores, sorted.
func (q *QueryServer) StoreNames() []string {
	q.mu.RLock()
	defer q.mu.RUnlock()
	out := make([]string, 0, len(q.stores))
	for name := range q.stores {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ErrUnknownStore reports a query against an unregistered store name.
var ErrUnknownStore = errors.New("historian: unknown store")

// WindowAggregate is one aggregated window of a query result.
type WindowAggregate struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Count int       `json:"count"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Mean  float64   `json:"mean"`
}

// Aggregate answers a windowed aggregate query: [from, to) split on the
// window grid (start times are multiples of window), empty windows elided.
// Edge windows are full grid cells, not clipped to the bounds: a from or to
// inside a window aggregates that window's whole cell, including points
// outside [from, to) — the grid semantics that make results cacheable
// per window regardless of the exact bounds a caller picked. An empty or
// inverted range (to <= from) yields no windows.
// This is the method the HTTP handler and the concurrent-reader benchmark
// share; the cached path costs two sync.Map hits and no store lock.
func (q *QueryServer) Aggregate(store, series string, from, to time.Time, window time.Duration) ([]WindowAggregate, error) {
	if window <= 0 {
		return nil, errors.New("historian: aggregate window must be positive")
	}
	st, ok := q.store(store)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStore, store)
	}
	f, t := from.UnixNano(), to.UnixNano()
	w := int64(window)
	first := floorDiv(f, w)
	last := ceilDiv(t, w)
	if last <= first {
		return nil, nil // empty or inverted range spans zero windows
	}
	if last-first > maxWindowsPerQuery {
		return nil, fmt.Errorf("historian: query spans %d windows (max %d); widen the window or narrow the range", last-first, maxWindowsPerQuery)
	}

	// One coordinate read per request: every window computed after this
	// read is tagged with gen — by the ordering contract in appendLocked a
	// tagged entry can never be staler than its tag.
	gen, boundary, drops, live := st.CacheInfo(series)

	// Whole-query fast path: dashboards repeat the same (series, range,
	// window) query verbatim, so when every window in the range is settled
	// the assembled result itself is cached under the same gen/drops
	// protocol. A hit costs one map load and one slice copy instead of one
	// load per window.
	qkey := queryCacheKey{store: store, series: series, first: first, last: last, width: window}
	allSettled := live && last*w <= boundary
	if allSettled {
		if v, hit := q.cache.Load(qkey); hit {
			e := v.(*queryCacheEntry)
			if e.gen == gen && (e.rollupOnly || e.drops == drops) {
				// One result-cache hit serves every window in the range.
				q.hits.Add(uint64(last - first))
				return append([]WindowAggregate(nil), e.windows...), nil
			}
		}
	}

	out := make([]WindowAggregate, 0, last-first)
	rollupAll := true
	for wi := first; wi < last; wi++ {
		ws := wi * w
		we := ws + w
		key := aggCacheKey{store: store, series: series, start: ws, width: window}
		cacheable := live && we <= boundary
		if cacheable {
			if v, hit := q.cache.Load(key); hit {
				e := v.(*aggCacheEntry)
				if e.gen == gen && (e.rollupOnly || e.drops == drops) {
					q.hits.Add(1)
					rollupAll = rollupAll && e.rollupOnly
					if !e.empty {
						out = append(out, windowResult(ws, we, e.agg))
					}
					continue
				}
			}
		}
		q.misses.Add(1)
		agg, rollupOnly, err := st.AggregateWindow(series, unixNano(ws), unixNano(we))
		empty := errors.Is(err, ErrNoNumericData)
		if err != nil && !empty {
			return nil, err
		}
		rollupAll = rollupAll && rollupOnly
		if cacheable {
			q.storeEntry(key, &aggCacheEntry{gen: gen, drops: drops, rollupOnly: rollupOnly, agg: agg, empty: empty})
		}
		if !empty {
			out = append(out, windowResult(ws, we, agg))
		}
	}
	if allSettled {
		q.storeEntry(qkey, &queryCacheEntry{gen: gen, drops: drops, rollupOnly: rollupAll,
			windows: append([]WindowAggregate(nil), out...)})
	}
	return out, nil
}

func windowResult(ws, we int64, agg Aggregate) WindowAggregate {
	return WindowAggregate{Start: unixNano(ws), End: unixNano(we), Count: agg.Count, Min: agg.Min, Max: agg.Max, Mean: agg.Mean}
}

func (q *QueryServer) storeEntry(key, e any) {
	if _, loaded := q.cache.Swap(key, e); !loaded {
		if q.entries.Add(1) > cacheMaxEntries {
			// Flush wholesale: cheaper and simpler than tracking LRU order,
			// and the hot windows repopulate within one polling cycle.
			q.cache.Range(func(k, _ any) bool {
				q.cache.Delete(k)
				return true
			})
			q.entries.Store(0)
		}
	}
}

// CacheStats reports cumulative cache hits and misses.
func (q *QueryServer) CacheStats() (hits, misses uint64) {
	return q.hits.Load(), q.misses.Load()
}

// ---------------------------------------------------------------------------
// HTTP front end

// Handler returns the HTTP handler serving the query API.
func (q *QueryServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/series", q.handleSeries)
	mux.HandleFunc("/range", q.handleRange)
	mux.HandleFunc("/aggregate", q.handleAggregate)
	mux.HandleFunc("/stats", q.handleStats)
	return mux
}

// Serve starts listening on addr (e.g. "127.0.0.1:9090", or ":0" for an
// ephemeral port) and serves until Close. It returns the bound address.
func (q *QueryServer) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("historian: query listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: q.Handler()}
	q.mu.Lock()
	q.ln = ln
	q.httpSrv = srv
	q.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the HTTP listener (no-op if Serve was never called).
func (q *QueryServer) Close() error {
	q.mu.Lock()
	srv := q.httpSrv
	q.httpSrv = nil
	q.ln = nil
	q.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (q *QueryServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	st, ok := q.store(r.URL.Query().Get("store"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown store %q (registered: %v)", r.URL.Query().Get("store"), q.StoreNames())
		return
	}
	writeJSON(w, map[string]any{"series": st.Series()})
}

func (q *QueryServer) handleRange(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	st, ok := q.store(qs.Get("store"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown store %q (registered: %v)", qs.Get("store"), q.StoreNames())
		return
	}
	series := qs.Get("series")
	if series == "" {
		httpError(w, http.StatusBadRequest, "missing series parameter")
		return
	}
	from, to, err := parseBounds(qs.Get("from"), qs.Get("to"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type rangePoint struct {
		Time    time.Time       `json:"time"`
		Payload json.RawMessage `json:"payload"`
	}
	pts := st.Range(series, from, to)
	out := make([]rangePoint, len(pts))
	for i, p := range pts {
		if json.Valid(p.Payload) {
			out[i] = rangePoint{Time: p.Time, Payload: json.RawMessage(p.Payload)}
		} else {
			quoted, _ := json.Marshal(string(p.Payload))
			out[i] = rangePoint{Time: p.Time, Payload: quoted}
		}
	}
	writeJSON(w, map[string]any{"series": series, "points": out})
}

func (q *QueryServer) handleAggregate(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	series := qs.Get("series")
	if series == "" {
		httpError(w, http.StatusBadRequest, "missing series parameter")
		return
	}
	from, to, err := parseBounds(qs.Get("from"), qs.Get("to"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	window := 10 * time.Second
	if ws := qs.Get("window"); ws != "" {
		window, err = time.ParseDuration(ws)
		if err != nil || window <= 0 {
			httpError(w, http.StatusBadRequest, "bad window %q (want a positive duration like 10s)", ws)
			return
		}
	}
	wins, err := q.Aggregate(qs.Get("store"), series, from, to, window)
	switch {
	case errors.Is(err, ErrUnknownStore):
		httpError(w, http.StatusNotFound, "%v (registered: %v)", err, q.StoreNames())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if wins == nil {
		wins = []WindowAggregate{}
	}
	writeJSON(w, map[string]any{"series": series, "window": window.String(), "windows": wins})
}

func (q *QueryServer) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := q.CacheStats()
	writeJSON(w, map[string]any{"cacheHits": hits, "cacheMisses": misses, "stores": q.StoreNames()})
}

// parseBounds parses from/to as RFC3339(Nano) or integer unix nanoseconds.
// An empty from means the beginning of time; an empty to means now.
func parseBounds(fromS, toS string) (from, to time.Time, err error) {
	if fromS == "" {
		from = time.Unix(0, 0)
	} else if from, err = parseInstant(fromS); err != nil {
		return from, to, fmt.Errorf("bad from %q: %w", fromS, err)
	}
	if toS == "" {
		to = time.Now()
	} else if to, err = parseInstant(toS); err != nil {
		return from, to, fmt.Errorf("bad to %q: %w", toS, err)
	}
	return from, to, nil
}

// parseInstant reads a range bound: unix nanoseconds written as
// strconv.FormatInt writes an int64 (no sign but a leading '-', no leading
// zero, no "-0"), or an RFC 3339 time. No RFC 3339 time is all digits, so
// the integer is tried first, without building the time parser's error.
func parseInstant(s string) (time.Time, error) {
	digits := strings.TrimPrefix(s, "-")
	if digits != "" && strings.Trim(digits, "0123456789") == "" {
		if digits[0] == '0' && (len(digits) > 1 || len(s) > 1) {
			return time.Time{}, errInstant // a leading zero, or "-0"
		}
		nanos, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return time.Time{}, errInstant // out of int64 range
		}
		return time.Unix(0, nanos), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	return time.Time{}, errInstant
}

var errInstant = errors.New("want RFC3339 or unix nanoseconds")

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
