package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

func replayAll(t *testing.T, dir string, opts Options) (map[uint64]string, *Log) {
	t.Helper()
	got := map[uint64]string{}
	l, err := Open(dir, opts, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 50; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatalf("LSNs not monotonic: %v", lsns)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
	for i, lsn := range lsns {
		if got[lsn] != fmt.Sprintf("record-%d", i) {
			t.Errorf("lsn %d = %q", lsn, got[lsn])
		}
	}
	// LSNs continue past the replayed tail.
	if next := l2.NextLSN(); next != lsns[len(lsns)-1]+1 {
		t.Errorf("NextLSN = %d, want %d", next, lsns[len(lsns)-1]+1)
	}
}

func TestSegmentRotationAndReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("expected rotation, got %d segments", l.Segments())
	}
	lsnBefore := l.NextLSN()
	cut, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Drop(cut); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Errorf("segments after reset = %d", l.Segments())
	}
	// LSNs survive compaction.
	lsn, err := l.Append([]byte("after-reset"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn < lsnBefore {
		t.Errorf("LSN went backwards across Reset: %d < %d", lsn, lsnBefore)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, l2 := replayAll(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if len(got) != 1 || got[lsn] != "after-reset" {
		t.Errorf("replay after reset = %v", got)
	}
}

// TestTornTailTruncated simulates a crash mid-write: the final record is cut
// short on disk. Open must recover every earlier record, discard only the
// torn one, and leave the log appendable.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // inside header, inside body
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("keep-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := l.Append([]byte("torn-record-payload")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			seg := filepath.Join(dir, "00000001.wal")
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			got, l2 := replayAll(t, dir, Options{})
			if len(got) != 5 {
				t.Fatalf("replayed %d records after torn tail, want 5", len(got))
			}
			// The log keeps working where the tail was cut.
			if _, err := l2.Append([]byte("appended-after-recovery")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got2, l3 := replayAll(t, dir, Options{})
			defer l3.Close()
			if len(got2) != 6 {
				t.Errorf("replayed %d records after recovery append, want 6", len(got2))
			}
		})
	}
}

// TestCorruptTailDiscarded flips a byte inside the final record's body: the
// checksum must catch it and Open must drop exactly that record.
func TestCorruptTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(got) != 2 {
		t.Errorf("replayed %d records, want 2 (corrupt tail dropped)", len(got))
	}
}

// TestInteriorCorruptionIsError: damage before the final segment is real
// corruption, not a torn tail, and must fail loudly instead of silently
// dropping data.
func TestInteriorCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte("0123456789012345678901234567890123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("test needs multiple segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, nil); err == nil {
		t.Fatal("want error for interior corruption")
	}
}

// errFile wraps a File failing Sync (and optionally tearing a write) on
// demand — the unit-level stand-in for the faultinject layer.
type errFile struct {
	File
	mu       sync.Mutex
	failSync bool
}

func (f *errFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSync {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

type errFS struct {
	FS
	files []*errFile
	mu    sync.Mutex
}

func (fs *errFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ef := &errFile{File: f}
	fs.mu.Lock()
	fs.files = append(fs.files, ef)
	fs.mu.Unlock()
	return ef, nil
}

// TestFsyncFailurePoisonsLog: after a failed fsync every Append fails, and
// reopening the directory recovers everything durably written before it.
func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fs := &errFS{FS: OS}
	l, err := Open(dir, Options{FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	for _, f := range fs.files {
		f.mu.Lock()
		f.failSync = true
		f.mu.Unlock()
	}
	fs.mu.Unlock()
	if _, err := l.Append([]byte("lost")); err == nil {
		t.Fatal("want error from failed fsync")
	}
	if l.Err() == nil {
		t.Fatal("log must stay poisoned")
	}
	if _, err := l.Append([]byte("also-refused")); err == nil {
		t.Fatal("appends after a failed fsync must be refused")
	}
	l.Close()

	got, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if got[1] != "durable" {
		t.Errorf("durable record lost: %v", got)
	}
}

// TestConcurrentAppends drives many goroutines through the group-commit
// path; every record must come back on replay exactly once. Run with -race.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, l2 := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	seen := map[string]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("record %q replayed twice", v)
		}
		seen[v] = true
	}
}

// TestLSNEncoding pins the on-disk body layout: 8-byte big-endian LSN then
// payload, all inside the record checksum.
func TestLSNEncoding(t *testing.T) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 42)
	if binary.BigEndian.Uint64(buf[:]) != 42 {
		t.Fatal("sanity")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Errorf("first LSN = %d, want 1", lsn)
	}
	l.Close()
}

// span is where one record's bytes went: file and byte range.
type span struct {
	file       string
	start, end int64
}

// syncRecorder is a pass-through FS that records every Write (the file and
// byte range of the record it carries, keyed by the record's LSN) and every
// Sync (the file, and how many of its bytes were written when the Sync
// began, credited once the Sync returns). A Close that lands while a Sync
// of the same file is in flight is recorded as a fault.
type syncRecorder struct {
	FS
	mu      sync.Mutex
	size    map[string]int64 // bytes written per file
	records map[uint64]span  // LSN → where its record was written
	synced  map[string]int64 // bytes of each file covered by a completed Sync
	syncing map[string]int   // Syncs in flight per file
	faults  []string
}

func newSyncRecorder() *syncRecorder {
	return &syncRecorder{FS: OS, size: map[string]int64{}, records: map[uint64]span{},
		synced: map[string]int64{}, syncing: map[string]int{}}
}

func (fs *syncRecorder) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recordedFile{File: f, fs: fs, name: name}, nil
}

// durable reports whether the record carrying lsn was written and a
// completed Sync of the file holding it covered its last byte.
func (fs *syncRecorder) durable(lsn uint64) (span, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sp, ok := fs.records[lsn]
	return sp, ok && fs.synced[sp.file] >= sp.end
}

type recordedFile struct {
	File
	fs   *syncRecorder
	name string
}

func (f *recordedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	start := fs.size[f.name]
	fs.size[f.name] += int64(n)
	body, _, rerr := wire.ReadRecord(bufio.NewReader(bytes.NewReader(p[:n])))
	if rerr != nil || len(body) < lsnLen {
		fs.faults = append(fs.faults, fmt.Sprintf("write to %s is not one whole record: %v", f.name, rerr))
		return n, err
	}
	fs.records[binary.BigEndian.Uint64(body)] = span{f.name, start, start + int64(n)}
	return n, err
}

func (f *recordedFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	covers := fs.size[f.name]
	fs.syncing[f.name]++
	fs.mu.Unlock()
	runtime.Gosched() // widen the window a concurrent rotation would need
	err := f.File.Sync()
	fs.mu.Lock()
	fs.syncing[f.name]--
	if err == nil && covers > fs.synced[f.name] {
		fs.synced[f.name] = covers
	}
	fs.mu.Unlock()
	return err
}

func (f *recordedFile) Close() error {
	fs := f.fs
	fs.mu.Lock()
	if fs.syncing[f.name] > 0 {
		fs.faults = append(fs.faults, fmt.Sprintf("%s closed during its fsync", f.name))
	}
	fs.mu.Unlock()
	return f.File.Close()
}

// TestAppendAcksOnlySyncedBytes: with concurrent appenders rotating small
// segments, every LSN Append returns was, by the time it returned, covered
// by a completed Sync of the file that holds its record — no segment is
// sealed with acknowledged bytes unsynced, and none is closed mid-fsync.
func TestAppendAcksOnlySyncedBytes(t *testing.T) {
	fs := newSyncRecorder()
	l, err := Open(t.TempDir(), Options{SegmentBytes: 4096, FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if sp, ok := fs.durable(lsn); !ok {
					t.Errorf("LSN %d acknowledged before a sync of %s covered bytes %d-%d",
						lsn, filepath.Base(sp.file), sp.start, sp.end)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 2 {
		t.Fatal("test needs rotation")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.faults {
		t.Error(f)
	}
}
