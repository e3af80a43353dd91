package historian

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wal"
)

func mustOpen(t *testing.T, dir string, opts DurableOptions) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDurableCrashRecovery: state built through AppendAcked and AppendBatch
// survives an abrupt close-and-reopen bit-for-bit, including session
// high-water marks.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, DurableOptions{})
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for i := 1; i <= 20; i++ {
		err := s.AppendAcked("sess", uint64(i), base.Add(time.Duration(i)*time.Second),
			[]Sample{{Series: "m/temp", Payload: []byte(fmt.Sprintf("%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendBatch(base, []Sample{{Series: "m/raw", Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	// No graceful shutdown beyond releasing the file handle: recovery must
	// come from the WAL alone.
	s.Close()

	r := mustOpen(t, dir, DurableOptions{})
	defer r.Close()
	if got := r.Count("m/temp"); got != 20 {
		t.Errorf("recovered %d points in m/temp, want 20", got)
	}
	if got := r.Count("m/raw"); got != 1 {
		t.Errorf("recovered %d points in m/raw, want 1", got)
	}
	if got := r.SessionSeq("sess"); got != 20 {
		t.Errorf("recovered session seq %d, want 20", got)
	}
	p, err := r.Latest("m/temp")
	if err != nil || string(p.Payload) != "20" {
		t.Errorf("latest = %q, %v", p.Payload, err)
	}
}

// TestDurableSessionDedup: a redelivered batch (same or lower seq) must not
// double-append, before or after recovery.
func TestDurableSessionDedup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, DurableOptions{})
	batch := []Sample{{Series: "x", Payload: []byte("v")}}
	now := time.Now()
	if err := s.AppendAcked("sess", 5, now, batch); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAcked("sess", 5, now, batch); err != nil { // redelivery
		t.Fatal(err)
	}
	if err := s.AppendAcked("sess", 3, now, batch); err != nil { // stale
		t.Fatal(err)
	}
	if got := s.Count("x"); got != 1 {
		t.Fatalf("dedup failed live: %d points", got)
	}
	s.Close()
	r := mustOpen(t, dir, DurableOptions{})
	defer r.Close()
	if got := r.Count("x"); got != 1 {
		t.Fatalf("dedup failed across recovery: %d points", got)
	}
	if err := r.AppendAcked("sess", 5, now, batch); err != nil {
		t.Fatal(err)
	}
	if got := r.Count("x"); got != 1 {
		t.Fatalf("recovered store re-applied seq 5: %d points", got)
	}
}

// TestCheckpointCompaction: crossing SnapshotEvery writes a snapshot,
// compacts the WAL, and recovery afterwards still yields the full state.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, DurableOptions{SnapshotEvery: 10, SegmentBytes: 512})
	for i := 1; i <= 25; i++ {
		err := s.AppendAcked("sess", uint64(i), time.Now(), []Sample{{Series: "a", Payload: []byte(fmt.Sprintf("%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after %d appends: %v", 25, err)
	}
	// Two checkpoints (at 10 and 20) have compacted; the WAL holds ≤ 5
	// records plus the active segment.
	s.Close()
	r := mustOpen(t, dir, DurableOptions{SnapshotEvery: 10, SegmentBytes: 512})
	defer r.Close()
	if got := r.Count("a"); got != 25 {
		t.Errorf("recovered %d points, want 25", got)
	}
	if got := r.SessionSeq("sess"); got != 25 {
		t.Errorf("recovered session seq %d, want 25", got)
	}
	// LSNs are monotonic across compaction: new appends never collide with
	// snapshot coverage.
	if err := r.AppendAcked("sess", 26, time.Now(), []Sample{{Series: "a", Payload: []byte("26")}}); err != nil {
		t.Fatal(err)
	}
	if r.LastLSN() < 26 {
		t.Errorf("LastLSN %d regressed below record count", r.LastLSN())
	}
}

// TestDurableTornTail: a torn final WAL record is discarded on open; every
// fsynced-and-acked batch survives.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, DurableOptions{})
	for i := 1; i <= 5; i++ {
		if err := s.AppendAcked("sess", uint64(i), time.Now(), []Sample{{Series: "a", Payload: []byte{byte('0' + i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	seg := filepath.Join(dir, "wal", "00000001.wal")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, DurableOptions{})
	defer r.Close()
	if got := r.Count("a"); got != 4 {
		t.Errorf("recovered %d points after torn tail, want 4 (only the torn record lost)", got)
	}
	if got := r.SessionSeq("sess"); got != 4 {
		t.Errorf("session seq %d after torn tail, want 4", got)
	}
}

// failSyncFS fails every segment fsync once armed.
type failSyncFS struct {
	wal.FS
	arm func() bool
}

type failSyncFile struct {
	wal.File
	arm func() bool
}

func (fs *failSyncFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: f, arm: fs.arm}, nil
}

func (f *failSyncFile) Sync() error {
	if f.arm() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestDurableFsyncFailureSurfaces: a failed fsync fails the append, Err()
// reports the poisoned WAL (the pod's health probe), and reopening the
// directory recovers everything previously acked.
func TestDurableFsyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	armed := false
	fs := &failSyncFS{FS: wal.OS, arm: func() bool { return armed }}
	s := mustOpen(t, dir, DurableOptions{FS: fs})
	if err := s.AppendAcked("sess", 1, time.Now(), []Sample{{Series: "a", Payload: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := s.AppendAcked("sess", 2, time.Now(), []Sample{{Series: "a", Payload: []byte("2")}}); err == nil {
		t.Fatal("append with failing fsync must error")
	}
	if s.Err() == nil {
		t.Fatal("Err() must surface the poisoned WAL")
	}
	s.Close()
	armed = false

	r := mustOpen(t, dir, DurableOptions{FS: fs})
	defer r.Close()
	// The unfsynced batch was never acked, so either outcome is safe: lost
	// (a real crash dropping the dirty page — the broker redelivers) or
	// present (the write reached the file before the failed fsync — the
	// session dedup absorbs the redelivery). What must hold: the fsynced
	// batch survives and the reopened store accepts appends again.
	if got := r.SessionSeq("sess"); got < 1 {
		t.Errorf("recovered session seq %d, want >= 1 (the fsynced batch)", got)
	}
	if err := r.AppendAcked("sess", 3, time.Now(), []Sample{{Series: "a", Payload: []byte("3")}}); err != nil {
		t.Fatalf("reopened store must accept appends: %v", err)
	}
}

// TestSnapshotFutureVersionRejected covers the versioning satellite: a
// snapshot from a newer build fails with a clear error instead of being
// silently misread, and the durable Open path propagates it.
func TestSnapshotFutureVersionRejected(t *testing.T) {
	future := fmt.Sprintf(`{"version": %d, "series": {}}`, snapshotVersion+1)
	_, err := RestoreStore(strings.NewReader(future))
	if err == nil {
		t.Fatal("future snapshot version must be rejected")
	}
	if !strings.Contains(err.Error(), "newer version") {
		t.Fatalf("error %q does not explain the version skew", err)
	}
	if _, err := RestoreStore(strings.NewReader(`{"version": 0, "series": {}}`)); err == nil {
		t.Fatal("version 0 must be rejected")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DurableOptions{}); err == nil || !strings.Contains(err.Error(), "newer version") {
		t.Fatalf("Open on a future snapshot = %v, want newer-version error", err)
	}
}
