package historian

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// Checkpoints run off the append path; Close waits for the running one.
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot after %d appends: %v", 25, err)
	}
	// Checkpoints (at 10 and 20, or later when one was still being written)
	// have compacted; the WAL holds the records after the last one.
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

// TestLSNsContinueAboveSnapshot: a checkpoint that covers the last record
// leaves the WAL empty. The reopened store's next records get LSNs above
// the snapshot's, so the next recovery replays them instead of skipping
// them as covered.
func TestLSNsContinueAboveSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{SnapshotEvery: 10}
	s := mustOpen(t, dir, opts)
	for i := 1; i <= 10; i++ {
		if err := s.AppendAcked("sess", uint64(i), time.Now(), []Sample{{Series: "a", Payload: []byte(strconv.Itoa(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // waits for the checkpoint of record 10
	r := mustOpen(t, dir, opts)
	if err := r.AppendAcked("sess", 11, time.Now(), []Sample{{Series: "a", Payload: []byte("11")}}); err != nil {
		t.Fatal(err)
	}
	if r.LastLSN() <= 10 {
		t.Errorf("LastLSN %d after the snapshot of LSN 10", r.LastLSN())
	}
	r.Close()
	checkRecovered(t, dir, 11)
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

// hookFS calls hook before every file Sync, Rename and Remove, with the
// operation and the file's name; an error from hook fails the operation.
type hookFS struct {
	wal.FS
	hook func(op, name string) error
}

type hookFile struct {
	wal.File
	name string
	hook func(op, name string) error
}

func (fs hookFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return hookFile{File: f, name: name, hook: fs.hook}, nil
}

func (fs hookFS) Rename(oldpath, newpath string) error {
	if err := fs.hook("rename", oldpath); err != nil {
		return err
	}
	return fs.FS.Rename(oldpath, newpath)
}

func (fs hookFS) Remove(name string) error {
	if err := fs.hook("remove", name); err != nil {
		return err
	}
	return fs.FS.Remove(name)
}

func (f hookFile) Sync() error {
	if err := f.hook("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

// appender appends one point per acked batch to series "a" of a store,
// numbered by the session's sequence, on its own goroutine until stopped.
type appender struct {
	acked atomic.Uint64
	stop  chan struct{}
	done  chan error
}

func newAppender() *appender {
	return &appender{stop: make(chan struct{}), done: make(chan error, 1)}
}

func (a *appender) start(s *Store) {
	go func() {
		for seq := uint64(1); ; seq++ {
			select {
			case <-a.stop:
				a.done <- nil
				return
			default:
			}
			err := s.AppendAcked("sess", seq, time.Now(), []Sample{{Series: "a", Payload: []byte(strconv.FormatUint(seq, 10))}})
			if err != nil {
				a.done <- err
				return
			}
			a.acked.Store(seq)
		}
	}()
}

// waitAcked waits until at least n batches are acked.
func (a *appender) waitAcked(n uint64, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for a.acked.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func (a *appender) halt(t *testing.T) {
	t.Helper()
	close(a.stop)
	if err := <-a.done; err != nil {
		t.Fatal(err)
	}
}

// checkRecovered opens dir and checks that it holds batches 1..n exactly
// once and in order, for some n >= atLeast.
func checkRecovered(t *testing.T, dir string, atLeast uint64) {
	t.Helper()
	r := mustOpen(t, dir, DurableOptions{})
	defer r.Close()
	n := r.SessionSeq("sess")
	if n < atLeast {
		t.Errorf("recovered session seq %d, want >= %d acked before the crash", n, atLeast)
	}
	pts := r.Range("a", time.Unix(0, 0), time.Now().Add(time.Hour))
	if uint64(len(pts)) != n {
		t.Fatalf("recovered %d points for session seq %d", len(pts), n)
	}
	for i, p := range pts {
		if want := strconv.Itoa(i + 1); string(p.Payload) != want {
			t.Fatalf("point %d is %q, want %q", i, p.Payload, want)
		}
	}
}

// TestCheckpointDoesNotStallAppends: while a checkpoint's snapshot fsync
// hangs on a slow disk, acked appends keep returning, past the next
// checkpoint that falls due, and the store recovers all of them.
func TestCheckpointDoesNotStallAppends(t *testing.T) {
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var held sync.Once
	fs := hookFS{FS: wal.OS, hook: func(op, name string) error {
		if op == "sync" && strings.HasSuffix(name, snapshotFile+".tmp") {
			held.Do(func() { close(entered); <-release })
		}
		return nil
	}}
	var released sync.Once
	unblock := func() { released.Do(func() { close(release) }) }
	defer unblock()
	s := mustOpen(t, dir, DurableOptions{FS: fs, SnapshotEvery: 10})

	a := newAppender()
	a.start(s)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no checkpoint reached its snapshot fsync")
	}
	at := a.acked.Load()
	if !a.waitAcked(at+50, 10*time.Second) {
		t.Fatalf("appends stalled behind a checkpoint: %d acked before its fsync hung, %d after", at, a.acked.Load())
	}
	unblock()
	a.halt(t)
	acked := a.acked.Load()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, dir, acked)
}

// TestCheckpointCrashWindows crashes a checkpoint before its rename and
// between the rename and the removal of the cut WAL segments, while appends
// run: what is on disk at that instant recovers every batch acked before
// it, exactly once and in order.
func TestCheckpointCrashWindows(t *testing.T) {
	for _, tc := range []struct {
		name, op, suffix string
	}{
		{"before the rename", "rename", snapshotFile + ".tmp"},
		{"between the rename and the segment removal", "remove", ".wal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, image := t.TempDir(), t.TempDir()
			a := newAppender()
			var crashed sync.Once
			var ackedAtCrash uint64
			stalled := false
			fs := hookFS{FS: wal.OS, hook: func(op, name string) error {
				if op != tc.op || !strings.HasSuffix(name, tc.suffix) {
					return nil
				}
				crashed.Do(func() {
					// Appends go on while the checkpoint is held here.
					at := a.acked.Load()
					stalled = !a.waitAcked(at+20, 10*time.Second)
					ackedAtCrash = a.acked.Load()
					copyDir(t, dir, image)
				})
				return nil
			}}
			s := mustOpen(t, dir, DurableOptions{FS: fs, SnapshotEvery: 25, SegmentBytes: 512})
			a.start(s)
			if !a.waitAcked(200, 20*time.Second) {
				t.Fatal("appends stalled")
			}
			a.halt(t)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if stalled {
				t.Fatal("appends stalled behind the checkpoint")
			}
			if ackedAtCrash == 0 {
				t.Fatal("no checkpoint reached the crash point")
			}
			checkRecovered(t, image, ackedAtCrash)
		})
	}
}

// TestFailedCheckpointIsStickyAndRecovers: a checkpoint whose rename fails
// turns sticky in Err, the health signal that restarts the pod, and leaves
// the previous snapshot and every WAL segment in place, so a reopen
// recovers every acked batch.
func TestFailedCheckpointIsStickyAndRecovers(t *testing.T) {
	dir := t.TempDir()
	var renames atomic.Int32
	fs := hookFS{FS: wal.OS, hook: func(op, name string) error {
		if op == "rename" && renames.Add(1) == 2 {
			return errors.New("injected rename failure")
		}
		return nil
	}}
	s := mustOpen(t, dir, DurableOptions{FS: fs, SnapshotEvery: 10, SegmentBytes: 256})
	a := newAppender()
	a.start(s)
	if !a.waitAcked(60, 10*time.Second) {
		t.Fatal("appends stalled")
	}
	a.halt(t)
	acked := a.acked.Load()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if renames.Load() < 2 {
		t.Fatalf("%d checkpoints renamed, want a second one to fail", renames.Load())
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "injected rename failure") {
		t.Errorf("Err() = %v, want the failed checkpoint", err)
	}
	checkRecovered(t, dir, acked)
}

// copyDir copies the files of src and its subdirectories into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(to, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, from, to)
			continue
		}
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
