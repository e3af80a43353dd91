// Package historian implements the data-storage component of the factory
// software stack: an in-memory time-series store that consumes machine data
// from broker topics and answers range and aggregate queries. It stands in
// for the databases of the paper's architecture while preserving the same
// role — "storing the machinery data within the databases".
package historian

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/wal"
)

// Point is one stored sample. Payload is opaque bytes — components store
// JSON, but the historian does not require it (snapshots base64-encode it).
type Point struct {
	Time    time.Time `json:"time"`
	Payload []byte    `json:"payload"`
}

// Float attempts to interpret the payload as a number (raw JSON number, or
// an object with a "value" field). The common shapes resolve through the
// allocation-free ingest parser (fastFloat, payload.go); a full JSON parse
// backstops exotic object encodings.
func (p Point) Float() (float64, bool) {
	if f, ok := fastFloat(p.Payload); ok {
		return f, true
	}
	var obj map[string]any
	if err := json.Unmarshal(p.Payload, &obj); err == nil {
		switch v := obj["value"].(type) {
		case float64:
			return v, true
		case string:
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f, true
			}
		}
	}
	return 0, false
}

// Store is a concurrency-safe multi-series store with bounded retention.
// A store opened with Open is durable: appends go through a write-ahead log
// and the exact state survives a crash (see durable.go). NewStore builds
// the volatile variant.
//
// Per series, points live in sealed immutable blocks plus a mutable head
// (block.go), each stored as the bytes it arrived as, with min/max/avg/count
// rollups at 1s/10s/60s maintained on every append (rollup.go) so windowed
// aggregates cost O(windows) instead of O(points).
type Store struct {
	mu           sync.RWMutex
	series       map[string]*seriesData
	maxPerSeries int
	appended     uint64

	// metas mirrors each series' cache-validity coordinates for lock-free
	// reads by the query cache (CacheInfo).
	metas sync.Map // series name -> *seriesMeta

	// sessions maps consumer session names to the highest sequence number
	// applied, the dedup state that makes redelivered batches idempotent.
	sessions map[string]uint64

	// Durable state, zero for volatile stores (durable.go).
	appendMu      sync.Mutex // serializes WAL append + apply + capture, so LastLSN is consistent
	wal           *wal.Log
	dir           string
	fs            wal.FS
	snapEvery     int
	sinceSnap     int
	checkpointing bool           // a checkpoint is being written (under mu)
	checkpointErr error          // the first failed checkpoint's error, sticky (under mu)
	checkpoints   sync.WaitGroup // the running checkpoint, for Close
	lastLSN       uint64         // highest LSN applied to the in-memory state
	encBuf        []byte         // binary record scratch, guarded by appendMu
}

// NewStore creates a volatile store retaining up to maxPerSeries points per
// series (0 means the default of 10000).
func NewStore(maxPerSeries int) *Store {
	if maxPerSeries <= 0 {
		maxPerSeries = 10000
	}
	return &Store{series: map[string]*seriesData{}, maxPerSeries: maxPerSeries, sessions: map[string]uint64{}}
}

// Append stores a sample. Samples are expected in non-decreasing time
// order per series; out-of-order samples are inserted by time.
func (s *Store) Append(series string, t time.Time, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(series, t, payload)
}

// Sample is one ingestible datum for AppendBatch.
type Sample struct {
	Series  string
	Payload []byte
}

// AppendBatch stores many samples with the timestamp t under a single lock
// acquisition — the broker-fed ingest path drains its subscription channel
// into batches so ingestion cost is amortized instead of paying one
// lock/unlock per message. Payloads are copied, as in Append. On a durable
// store the batch is WAL-logged and fsynced before it is applied; the error
// is always nil for volatile stores.
func (s *Store) AppendBatch(t time.Time, samples []Sample) error {
	if len(samples) == 0 {
		return nil
	}
	if s.wal != nil {
		return s.appendDurable("", 0, t, samples)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sm := range samples {
		s.appendLocked(sm.Series, t, sm.Payload)
	}
	return nil
}

// AppendAcked stores a batch delivered on an acked broker session: seq is
// the batch's last sequence number, and a batch at or below the session's
// high-water mark is skipped — the dedup that makes broker redelivery and
// replayed acks idempotent, turning at-least-once delivery into
// exactly-once storage. On a durable store the batch is fsynced to the WAL
// before it is applied, so the caller may ack the broker once AppendAcked
// returns nil.
func (s *Store) AppendAcked(session string, seq uint64, t time.Time, samples []Sample) error {
	if session == "" {
		return errors.New("historian: AppendAcked requires a session name")
	}
	s.mu.RLock()
	applied := s.sessions[session]
	s.mu.RUnlock()
	if seq <= applied {
		return nil // duplicate redelivery
	}
	if s.wal != nil {
		return s.appendDurable(session, seq, t, samples)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sm := range samples {
		s.appendLocked(sm.Series, t, sm.Payload)
	}
	if seq > s.sessions[session] {
		s.sessions[session] = seq
	}
	return nil
}

// SessionSeq returns the highest applied sequence for a consumer session —
// the resume point a restarted consumer passes as FromSeq.
func (s *Store) SessionSeq(session string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[session]
}

// appendLocked inserts one sample; callers hold s.mu. The ordering contract
// with the lock-free query cache: data mutations happen before the matching
// seriesMeta updates, so a cache entry tagged with a generation read before
// its computation can never describe newer state than its tag claims.
func (s *Store) appendLocked(series string, t time.Time, payload []byte) {
	sd := s.series[series]
	if sd == nil {
		sd = newSeriesData()
		s.series[series] = sd
		s.metas.Store(series, sd.meta)
	}
	tn := t.UnixNano()
	val, numeric := fastFloat(payload)
	hp := headPoint{t: t, tn: tn, payload: append([]byte(nil), payload...), val: val, numeric: numeric}
	if sd.total > 0 && tn < sd.last.tn {
		// Out of order: insert sorted within the head (after any equal
		// instants). A point that predates every sealed block lands at the
		// head front; Range compensates by sorting merged output once the
		// overlap flag is set. Settled history changed, so bump gen.
		i := sort.Search(len(sd.head), func(i int) bool { return sd.head[i].tn > tn })
		sd.head = append(sd.head, headPoint{})
		copy(sd.head[i+1:], sd.head[i:])
		sd.head[i] = hp
		if i == 0 && len(sd.blocks) > 0 {
			sd.overlap = true
		}
		if numeric {
			sd.rollups.add(tn, val)
		}
		sd.total++
		sd.meta.gen.Add(1)
	} else {
		sd.head = append(sd.head, hp)
		sd.last = hp
		if numeric && sd.rollups.add(tn, val) {
			sd.meta.gen.Add(1) // ring eviction: coverage shrank
		}
		sd.total++
	}
	s.appended++
	if len(sd.head) >= blockSize {
		sd.seal()
	}
	if sd.total > s.maxPerSeries {
		sd.dropOldest()
	}
	sd.updateBoundary()
}

// Series lists stored series names, sorted.
func (s *Store) Series() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored points in a series.
func (s *Store) Count(series string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sd := s.series[series]; sd != nil {
		return sd.total
	}
	return 0
}

// TotalAppended returns the lifetime number of appended points.
func (s *Store) TotalAppended() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appended
}

// Latest returns the most recent point of a series.
func (s *Store) Latest(series string) (Point, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sd := s.series[series]
	if sd == nil || sd.total == 0 {
		return Point{}, fmt.Errorf("historian: series %q is empty", series)
	}
	// sd.last is always live while the series is non-empty: retention
	// drops from the front and can never reach the newest point.
	return sd.last.point(), nil
}

// Range returns points with from <= t < to, in time order. The result is
// a fresh copy — payload bytes never alias internal storage, so callers
// may hold or mutate them while appends continue.
func (s *Store) Range(series string, from, to time.Time) []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sd := s.series[series]
	if sd == nil {
		return nil
	}
	f, t := from.UnixNano(), to.UnixNano()
	if t <= f {
		return nil
	}
	var out []Point
	sd.view().collectRange(f, t, &out)
	return out
}

// Aggregate summarizes numeric samples in [from, to).
type Aggregate struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
}

// ErrNoNumericData reports that a range held no numeric samples.
var ErrNoNumericData = errors.New("historian: no numeric data in range")

// AggregateRange computes Count/Min/Max/Mean over numeric samples in
// [from, to). Spans the rollup rings cover are answered from ingest-time
// buckets in O(windows); only unaligned edges and history older than the
// rings scan points. Aggregates outlive raw retention: a bucket keeps
// counting points whose payloads have aged out of Range.
func (s *Store) AggregateRange(series string, from, to time.Time) (Aggregate, error) {
	agg, _, err := s.AggregateWindow(series, from, to)
	return agg, err
}

// AggregateWindow is AggregateRange plus a rollupOnly result: whether the
// answer came entirely from rollup buckets (or provably empty spans) and so
// cannot change when retention drops raw points — the property the query
// cache keys on (query.go).
func (s *Store) AggregateWindow(series string, from, to time.Time) (Aggregate, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sd := s.series[series]
	if sd == nil {
		return Aggregate{}, true, ErrNoNumericData
	}
	acc := sd.aggRange(from.UnixNano(), to.UnixNano(), 0)
	if acc.count == 0 {
		return Aggregate{}, acc.rollupOnly, ErrNoNumericData
	}
	return Aggregate{
		Count: acc.count,
		Min:   acc.min,
		Max:   acc.max,
		Mean:  acc.sum / float64(acc.count),
	}, acc.rollupOnly, nil
}

// CacheInfo returns the lock-free cache-validity coordinates of a series:
// the settled-history generation (changes on block seal, out-of-order
// append and rollup eviction), the cacheability boundary (windows ending at
// or before it cannot be changed by in-order appends), and the retention
// drop counter (invalidates scan-backed results only). ok is false until
// the series has received its first point.
func (s *Store) CacheInfo(series string) (gen uint64, boundary int64, drops uint64, ok bool) {
	v, ok := s.metas.Load(series)
	if !ok {
		return 0, 0, 0, false
	}
	m := v.(*seriesMeta)
	// gen loads first: an entry tagged with this gen and computed afterwards
	// can only be newer than the tag, never staler (see appendLocked).
	return m.gen.Load(), m.boundary.Load(), m.drops.Load(), true
}

// ---------------------------------------------------------------------------
// Broker-fed service

// Service subscribes to broker topics and stores everything it receives,
// keyed by topic.
type Service struct {
	Store *Store

	client    *broker.Client
	subIDs    []int
	wg        sync.WaitGroup
	mu        sync.Mutex
	stopped   bool
	failErr   error
	ownsStore bool

	// Now returns the ingestion timestamp; overridable in tests.
	Now func() time.Time
}

// NewAckedService creates a historian service that ingests over acked
// at-least-once broker sessions named "historian/<name>/<topic>". Each
// batch is acknowledged only after the store accepted it, and on restart
// the service resumes every session from the store's high-water sequence —
// with a store that survives the restart (a supervisor-held volatile store,
// or a durable one) no sample is lost or double-counted.
func NewAckedService(brokerAddr, name string, topics []string, store *Store) (*Service, error) {
	return newService(brokerAddr, name, topics, store, false)
}

// NewDurableService opens (or recovers) the durable store in dir and
// ingests into it over acked sessions. The full loss-bounded path: broker
// redelivers until the batch is fsynced in the WAL, the WAL replays on
// restart, and session sequence dedup makes the overlap idempotent.
func NewDurableService(brokerAddr, name string, topics []string, dir string, opts DurableOptions) (*Service, error) {
	store, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	svc, err := newService(brokerAddr, name, topics, store, true)
	if err != nil {
		store.Close()
		return nil, err
	}
	return svc, nil
}

func newService(brokerAddr, name string, topics []string, store *Store, ownsStore bool) (*Service, error) {
	if name == "" {
		return nil, errors.New("historian: service requires a name")
	}
	client, err := broker.DialClient(brokerAddr)
	if err != nil {
		return nil, fmt.Errorf("historian: %w", err)
	}
	if store == nil {
		store = NewStore(0)
	}
	svc := &Service{Store: store, client: client, ownsStore: ownsStore, Now: time.Now}
	for _, topic := range topics {
		session := "historian/" + name + "/" + topic
		id, ch, err := client.SubscribeSession(topic, session, store.SessionSeq(session))
		if err != nil {
			// Closing the client closes every subscription channel; wait for
			// the pumps already started to drain out, so none appends to the
			// caller's store after this constructor has returned.
			client.Close()
			svc.wg.Wait()
			return nil, fmt.Errorf("historian: subscribe %q session %q: %w", topic, session, err)
		}
		svc.subIDs = append(svc.subIDs, id)
		svc.wg.Add(1)
		go svc.pumpAcked(id, session, ch)
	}
	return svc, nil
}

// ingestBatch bounds how many queued messages one pump iteration drains
// into a single AppendAcked call.
const ingestBatch = 256

// pumpAcked drains one acked session, storing then acknowledging each
// batch. Ack-after-store is the loss bound: a crash between the two costs
// a redelivery the store dedups, never a lost sample. A store error stops
// the pump without acking — Health degrades and the supervisor restarts
// the pod through the recovery path.
func (s *Service) pumpAcked(subID int, session string, ch <-chan broker.Message) {
	defer s.wg.Done()
	samples := make([]Sample, 0, ingestBatch)
	for m := range ch {
		samples = append(samples[:0], Sample{Series: m.Topic, Payload: m.Payload})
		lastSeq := m.Seq
	drain:
		for len(samples) < ingestBatch {
			select {
			case m, ok := <-ch:
				if !ok {
					break drain
				}
				samples = append(samples, Sample{Series: m.Topic, Payload: m.Payload})
				lastSeq = m.Seq
			default:
				break drain
			}
		}
		if err := s.Store.AppendAcked(session, lastSeq, s.Now(), samples); err != nil {
			s.fail(err)
			return
		}
		if err := s.client.Ack(subID, lastSeq); err != nil {
			// The connection is gone; the broker will redeliver to the next
			// attachment and the store's session seq dedups the overlap.
			return
		}
	}
}

func (s *Service) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.mu.Unlock()
}

// Health reports whether the historian is still ingesting: it must not be
// closed, its broker connection must be alive, its pumps must not have hit
// a storage error, and a durable store's WAL must not be poisoned.
func (s *Service) Health() error {
	s.mu.Lock()
	stopped, failErr := s.stopped, s.failErr
	s.mu.Unlock()
	if stopped {
		return errors.New("historian: closed")
	}
	if failErr != nil {
		return fmt.Errorf("historian: ingest failed: %w", failErr)
	}
	if err := s.Store.Err(); err != nil {
		return fmt.Errorf("historian: %w", err)
	}
	if err := s.client.Err(); err != nil {
		return fmt.Errorf("historian: %w", err)
	}
	return nil
}

// Stop is Close for callers that have no use for its error.
func (s *Service) Stop() { s.Close() }

// Close stops ingestion and drops the broker connection; a service that
// owns a durable store closes it too.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	err := s.client.Close()
	s.wg.Wait()
	if s.ownsStore {
		if cerr := s.Store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
