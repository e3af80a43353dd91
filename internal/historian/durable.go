package historian

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wal"
)

// This file adds crash recovery to the Store: appends are written to a
// segmented WAL (internal/wal) and fsynced before they touch the in-memory
// state, periodic checkpoints snapshot the full state and compact the log
// off the ingest path, and Open replays snapshot + WAL suffix to
// reconstruct the exact pre-crash store. Recovery layout in dir:
//
//	snapshot.json   state up to LastLSN (written atomically via rename)
//	wal/*.wal       records after the snapshot (plus skippable leftovers)
//
// Records at or below the snapshot's LastLSN — leftovers of a crash between
// "snapshot renamed" and "old segments removed" — are skipped on replay, so
// every crash window converges to the same state.

const snapshotFile = "snapshot.json"

// DurableOptions configure Open. The zero value is usable.
type DurableOptions struct {
	// MaxPerSeries bounds retention for a fresh store (an existing
	// snapshot's own bound wins on recovery; 0 means the default).
	MaxPerSeries int
	// SegmentBytes is the WAL segment rotation size (0 means the WAL default).
	SegmentBytes int64
	// SnapshotEvery checkpoints after this many WAL records (default 1024).
	SnapshotEvery int
	// FS overrides the filesystem — the fault-injection hook (default real).
	FS wal.FS
	// NoSync skips fsync. Benchmarks only; never for data that must survive.
	NoSync bool
}

func (o DurableOptions) snapshotEvery() int {
	if o.SnapshotEvery > 0 {
		return o.SnapshotEvery
	}
	return 1024
}

func (o DurableOptions) fs() wal.FS {
	if o.FS != nil {
		return o.FS
	}
	return wal.OS
}

// walRecord is the WAL payload of one stored batch, in the binary format
// of walcodec.go.
type walRecord struct {
	T       time.Time
	Session string
	Seq     uint64
	Samples []walSample
}

type walSample struct {
	Series  string
	Payload []byte
}

// Open opens (or creates) a durable store in dir, recovering exact
// pre-crash state: the snapshot restores everything up to its LastLSN, then
// the WAL suffix replays on top with session-sequence dedup.
func Open(dir string, opts DurableOptions) (*Store, error) {
	fs := opts.fs()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("historian: mkdir %s: %w", dir, err)
	}

	var store *Store
	snapPath := filepath.Join(dir, snapshotFile)
	f, err := fs.OpenFile(snapPath, os.O_RDONLY, 0)
	switch {
	case err == nil:
		store, err = RestoreStore(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		store = NewStore(opts.MaxPerSeries)
	default:
		return nil, fmt.Errorf("historian: open snapshot %s: %w", snapPath, err)
	}

	snapLSN := store.lastLSN
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		SegmentBytes: opts.SegmentBytes,
		FirstLSN:     snapLSN + 1,
		FS:           fs,
		NoSync:       opts.NoSync,
	}, func(lsn uint64, payload []byte) error {
		if lsn <= snapLSN {
			return nil // leftover of a crash mid-compaction; snapshot covers it
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		store.applyRecord(rec, lsn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("historian: %w", err)
	}

	store.wal = log
	store.dir = dir
	store.fs = fs
	store.snapEvery = opts.snapshotEvery()
	return store, nil
}

// applyRecord applies one replayed WAL record to the in-memory state, with
// the same session dedup the live path uses.
func (s *Store) applyRecord(rec walRecord, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Session != "" && rec.Seq <= s.sessions[rec.Session] {
		s.lastLSN = lsn
		return
	}
	for _, sm := range rec.Samples {
		s.appendLocked(sm.Series, rec.T, sm.Payload)
	}
	if rec.Session != "" {
		s.sessions[rec.Session] = rec.Seq
	}
	s.lastLSN = lsn
}

// appendDurable WAL-logs one batch, applies it, and starts a checkpoint when
// one is due. appendMu serializes the whole sequence so the snapshot's
// LastLSN always covers every lower LSN — without it, a snapshot could
// record LSN n while LSN n-1 was still unapplied, and replay would skip that
// record forever.
func (s *Store) appendDurable(session string, seq uint64, t time.Time, samples []Sample) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	// Encode into a buffer reused across appends (appendMu is held).
	s.encBuf = appendWALRecord(s.encBuf[:0], t.UnixNano(), session, seq, samples)
	lsn, err := s.wal.Append(s.encBuf)
	if err != nil {
		return fmt.Errorf("historian: %w", err)
	}

	s.mu.Lock()
	for _, sm := range samples {
		s.appendLocked(sm.Series, t, sm.Payload)
	}
	if session != "" && seq > s.sessions[session] {
		s.sessions[session] = seq
	}
	s.lastLSN = lsn
	s.sinceSnap++
	// A checkpoint that falls due while one is written waits for the next
	// append after it.
	due := s.sinceSnap >= s.snapEvery && !s.checkpointing
	var c capture
	if due {
		s.sinceSnap, s.checkpointing = 0, true
		c = s.captureLocked()
	}
	s.mu.Unlock()

	if due {
		s.checkpoint(c)
	}
	return nil
}

// checkpoint cuts the WAL at the captured state, then writes the snapshot
// on a goroutine of its own while appends go on: the captured points are
// materialized and JSON-encoded to a temp file, fsynced and renamed over
// the previous snapshot, and only then are the cut segments removed. The
// caller holds appendMu, so no record lands between the capture and the
// cut: the cut segments hold every record up to the captured LastLSN and
// none after it. A crash anywhere recovers: before the rename the old
// snapshot and every segment replay; after it, the new snapshot skips the
// leftover cut segments. A failed checkpoint leaves the old snapshot and
// every segment in place, and its error turns sticky in Err.
func (s *Store) checkpoint(c capture) {
	cut, err := s.wal.Cut()
	if err != nil {
		s.endCheckpoint(err)
		return
	}
	s.checkpoints.Add(1)
	go func() {
		defer s.checkpoints.Done()
		err := s.writeSnapshotFile(c.snapshot())
		if err == nil {
			err = s.wal.Drop(cut)
		}
		s.endCheckpoint(err)
	}()
}

func (s *Store) endCheckpoint(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpointing = false
	if s.checkpointErr == nil && err != nil {
		s.checkpointErr = err
	}
}

// writeSnapshotFile writes snap to a temp file, fsyncs it and renames it
// over the previous snapshot.
func (s *Store) writeSnapshotFile(snap Snapshot) error {
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("historian: checkpoint: %w", err)
	}
	if err := writeSnapshot(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("historian: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("historian: checkpoint close: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return fmt.Errorf("historian: checkpoint rename: %w", err)
	}
	return nil
}

// Err surfaces a durable store's sticky WAL or checkpoint failure (always
// nil for volatile stores) — the health signal that routes a poisoned log
// or a failed checkpoint through the supervisor's restart-and-recover path.
func (s *Store) Err() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Err(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkpointErr
}

// LastLSN returns the WAL position of the last applied record.
func (s *Store) LastLSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastLSN
}

// Close waits for a running checkpoint and releases the WAL (no-op for
// volatile stores).
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	s.appendMu.Lock() // no checkpoint starts after this
	defer s.appendMu.Unlock()
	s.checkpoints.Wait()
	return s.wal.Close()
}
