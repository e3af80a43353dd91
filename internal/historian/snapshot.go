package historian

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"time"
)

// Snapshot is the serializable state of a Store — the persistence format
// used to checkpoint and restore historians across restarts (a stand-in
// for the durable databases of the paper's architecture).
//
// Version history (RestoreStore reads the current version only):
//
//	1: Series + MaxPerSeries.
//	2: adds Sessions (per-consumer-session high-water sequence numbers) and
//	   LastLSN (the WAL position the snapshot covers), so a durable store
//	   restores exactly-once ingest state and replays only the WAL suffix.
//	3: adds Rollups (the per-series ingest-time aggregate rings), so the
//	   aggregates-outlive-retention contract survives recovery — rollup
//	   buckets counting points already dropped by retention restore intact
//	   instead of being rebuilt from retained points only.
type Snapshot struct {
	Version      int                   `json:"version"`
	TakenAt      time.Time             `json:"takenAt"`
	MaxPerSeries int                   `json:"maxPerSeries"`
	Series       map[string][]Point    `json:"series"`
	Sessions     map[string]uint64     `json:"sessions,omitempty"`
	LastLSN      uint64                `json:"lastLsn,omitempty"`
	Rollups      map[string][]RingSnap `json:"rollups,omitempty"`
}

// RingSnap is one serialized rollup ring: the consecutive buckets
// [FirstIdx, FirstIdx+len(Buckets)) of the Win-wide grid, linearized in
// index order. Rings that retained nothing are omitted.
type RingSnap struct {
	Win      int64        `json:"win"`
	FirstIdx int64        `json:"firstIdx"`
	Buckets  []BucketSnap `json:"buckets"`
}

// BucketSnap is one serialized rollup bucket.
type BucketSnap struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
}

// snapshotVersion is the current persistence format version.
const snapshotVersion = 3

// Snapshot captures the store's full contents. The lock is held only for
// the capture; the points materialize outside it.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	c := s.captureLocked()
	s.mu.RUnlock()
	return c.snapshot()
}

// WriteSnapshot streams the snapshot as JSON.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return writeSnapshot(w, s.Snapshot())
}

func writeSnapshot(w io.Writer, snap Snapshot) error {
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("historian: write snapshot: %w", err)
	}
	return nil
}

// capture is a store's state as a snapshot needs it, taken under the store
// lock at the cost of copying each series' head and rollup rings: a view of
// every series, and the snapshot's other fields.
type capture struct {
	snap  Snapshot // every field but Series
	views map[string]seriesView
}

// captureLocked takes a capture; callers hold s.mu in either mode.
func (s *Store) captureLocked() capture {
	c := capture{
		snap: Snapshot{
			Version:      snapshotVersion,
			TakenAt:      time.Now().UTC(),
			MaxPerSeries: s.maxPerSeries,
			LastLSN:      s.lastLSN,
		},
		views: make(map[string]seriesView, len(s.series)),
	}
	for name, sd := range s.series {
		if rings := snapRollups(&sd.rollups); len(rings) > 0 {
			if c.snap.Rollups == nil {
				c.snap.Rollups = map[string][]RingSnap{}
			}
			c.snap.Rollups[name] = rings
		}
		v := sd.view()
		v.head = slices.Clone(v.head)
		c.views[name] = v
	}
	if len(s.sessions) > 0 {
		c.snap.Sessions = maps.Clone(s.sessions)
	}
	return c
}

// snapshot materializes the captured points: every sealed and every head
// point copied.
func (c capture) snapshot() Snapshot {
	snap := c.snap
	snap.Series = make(map[string][]Point, len(c.views))
	for name, v := range c.views {
		pts := make([]Point, 0, v.total)
		v.collectRange(math.MinInt64, math.MaxInt64, &pts)
		snap.Series[name] = pts
	}
	return snap
}

// snapRollups serializes a series' non-empty rollup rings, linearized in
// bucket-index order. Callers hold the store lock (any mode — rings only
// mutate under the write lock).
func snapRollups(rs *rollupSet) []RingSnap {
	var out []RingSnap
	for i := range rs.rings {
		r := &rs.rings[i]
		if r.n == 0 {
			continue
		}
		buckets := make([]BucketSnap, r.n)
		for j := 0; j < r.n; j++ {
			b := r.slot(j)
			buckets[j] = BucketSnap{Count: b.count, Min: b.min, Max: b.max, Sum: b.sum}
		}
		out = append(out, RingSnap{Win: r.win, FirstIdx: r.firstIdx, Buckets: buckets})
	}
	return out
}

// restoreRollups overwrites a series' rings with their serialized state.
// The persisted rings already include every retained point's contribution
// (rollups are maintained at ingest), so wholesale replacement — not a
// merge with the rings rebuilt by re-appending — reproduces the pre-snapshot
// state exactly, dropped-point contributions included.
func restoreRollups(rs *rollupSet, rings []RingSnap) {
	for _, snap := range rings {
		if len(snap.Buckets) == 0 {
			continue
		}
		for i := range rs.rings {
			r := &rs.rings[i]
			if r.win != snap.Win || len(snap.Buckets) > r.limit {
				continue
			}
			buckets := make([]rollupBucket, len(snap.Buckets))
			for j, b := range snap.Buckets {
				buckets[j] = rollupBucket{count: b.Count, min: b.Min, max: b.Max, sum: b.Sum}
			}
			r.buckets, r.firstIdx, r.start, r.n = buckets, snap.FirstIdx, 0, len(buckets)
		}
	}
}

// RestoreStore reconstructs a store from a snapshot stream. Points are
// re-appended in time order per series, so retention bounds apply. Only
// the current format version restores; a snapshot written by a newer
// version, or by an older one, is rejected rather than silently misread.
func RestoreStore(r io.Reader) (*Store, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("historian: read snapshot: %w", err)
	}
	if snap.Version > snapshotVersion {
		return nil, fmt.Errorf("historian: snapshot version %d was written by a newer version (this build reads %d); refusing to misread it", snap.Version, snapshotVersion)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("historian: snapshot version %d is not supported (this build reads %d)", snap.Version, snapshotVersion)
	}
	store := NewStore(snap.MaxPerSeries)
	names := make([]string, 0, len(snap.Series))
	for name := range snap.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range snap.Series[name] {
			store.Append(name, p.Time, p.Payload)
		}
	}
	for name, rings := range snap.Rollups {
		sd := store.series[name]
		if sd == nil {
			// Every raw point aged out before the snapshot; the rollups are
			// all that remains of the series.
			sd = newSeriesData()
			store.series[name] = sd
			store.metas.Store(name, sd.meta)
		}
		restoreRollups(&sd.rollups, rings)
	}
	for k, v := range snap.Sessions {
		store.sessions[k] = v
	}
	store.lastLSN = snap.LastLSN
	return store, nil
}
