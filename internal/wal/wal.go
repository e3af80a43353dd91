// Package wal implements the segmented write-ahead log behind the durable
// historian: an append-only record log built on the checksummed record
// framing of internal/wire, with torn-tail truncation on open and
// snapshot-triggered compaction.
//
// Every record carries a monotonic LSN (log sequence number) that survives
// compaction, so a state snapshot taken at LSN n plus a replay of all
// records with LSN > n reconstructs the exact pre-crash state even when the
// crash fell between "snapshot written" and "old segments deleted".
//
// Durability semantics: Append writes and fsyncs its record under the log's
// lock and returns only after the fsync of the segment that holds it. A
// failed fsync poisons the log permanently — after fsync fails,
// the kernel may have dropped the dirty pages, so the only honest recovery
// is to reopen and replay from disk; callers surface the sticky error
// through their health checks and let the supervisor restart them.
//
// All file I/O goes through the FS interface so the fault-injection layer
// can interpose torn writes and fsync errors (internal/faultinject.WrapFS).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// File is the subset of *os.File the log needs from a segment file.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts the filesystem operations of the log so faults can be
// injected. OS is the real implementation.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// OS is the real filesystem.
var OS FS = osFS{}

// Options tune a log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates the active segment once it passes this size
	// (default 1 MiB).
	SegmentBytes int64
	// FS is the filesystem (default OS).
	FS FS
	// FirstLSN is the lowest LSN the log hands out (default 1). A caller
	// whose snapshot covers LSN n passes n+1: a log that a checkpoint left
	// empty then goes on above the snapshot instead of restarting at 1,
	// below it, where replay would skip the new records.
	FirstLSN uint64
	// NoSync skips fsync entirely — for benchmarks and tests that measure
	// the append path without paying disk latency. Never use it for data
	// that must survive a crash.
	NoSync bool
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 1 << 20
}

func (o Options) fs() FS {
	if o.FS != nil {
		return o.FS
	}
	return OS
}

const segSuffix = ".wal"

// lsnLen prefixes every record body with its 8-byte big-endian LSN, inside
// the checksum's coverage.
const lsnLen = 8

// Log is a segmented append-only record log.
type Log struct {
	mu sync.Mutex

	dir  string
	fs   FS
	opts Options

	active     File
	activeName string
	activeSize int64
	nextSeg    int
	sealed     []string // sealed segment paths, oldest first

	nextLSN uint64

	err    error // sticky: first write/fsync failure poisons the log
	closed bool
}

// Open opens (or creates) the log in dir, replaying every intact record
// through replay in LSN order. A torn tail — a final record cut short or
// failing its checksum — is truncated away; corruption anywhere else is an
// error. replay may be nil to skip delivery (the scan still validates and
// truncates).
func Open(dir string, opts Options, replay func(lsn uint64, payload []byte) error) (*Log, error) {
	fs := opts.fs()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	var indexes []int
	for _, name := range names {
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
		if err != nil {
			continue
		}
		indexes = append(indexes, idx)
	}
	sort.Ints(indexes)

	l := &Log{dir: dir, fs: fs, opts: opts, nextLSN: max(1, opts.FirstLSN)}

	for i, idx := range indexes {
		path := l.segPath(idx)
		size, err := l.replaySegment(path, i == len(indexes)-1, replay)
		if err != nil {
			return nil, err
		}
		if i == len(indexes)-1 {
			l.activeName = path
			l.activeSize = size
			l.nextSeg = idx + 1
		} else {
			l.sealed = append(l.sealed, path)
		}
	}

	if l.activeName == "" {
		l.nextSeg = 1
		if err := l.openSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		f, err := fs.OpenFile(l.activeName, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen %s: %w", l.activeName, err)
		}
		l.active = f
	}
	return l, nil
}

func (l *Log) segPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d%s", idx, segSuffix))
}

// replaySegment scans one segment, delivering intact records. In the final
// segment a torn tail is truncated at the last good record; anywhere else
// it is corruption.
func (l *Log) replaySegment(path string, last bool, replay func(uint64, []byte) error) (int64, error) {
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	r := bufio.NewReader(f)
	var good int64
	for {
		body, n, err := wire.ReadRecord(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			f.Close()
			if !last {
				return 0, fmt.Errorf("wal: segment %s corrupt at offset %d: %w", path, good, err)
			}
			// Torn tail: everything after the last intact record is the
			// debris of a crashed write. Drop it and continue from there.
			if terr := l.fs.Truncate(path, good); terr != nil {
				return 0, fmt.Errorf("wal: truncate torn tail of %s: %w", path, terr)
			}
			return good, nil
		}
		if len(body) < lsnLen {
			f.Close()
			return 0, fmt.Errorf("wal: segment %s: record at offset %d too short for LSN", path, good)
		}
		lsn := binary.BigEndian.Uint64(body[:lsnLen])
		if lsn >= l.nextLSN {
			l.nextLSN = lsn + 1
		}
		if replay != nil {
			if err := replay(lsn, body[lsnLen:]); err != nil {
				f.Close()
				return 0, fmt.Errorf("wal: replay %s at LSN %d: %w", path, lsn, err)
			}
		}
		good += int64(n)
	}
	return good, f.Close()
}

// openSegmentLocked creates the next segment file and makes it active.
func (l *Log) openSegmentLocked() error {
	path := l.segPath(l.nextSeg)
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	l.nextSeg++
	l.active = f
	l.activeName = path
	l.activeSize = 0
	return nil
}

// Append writes one record and returns once it is durable (fsynced, unless
// the log runs with NoSync). The write, the fsync and any rotation happen
// under the log's lock, so a segment is never closed while it is being
// synced and no record is acknowledged before the file holding it is. The
// returned LSN orders the record against snapshots. Errors are sticky: after
// the first write or fsync failure every Append fails, and the caller's
// recovery is to reopen the log.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stateErrLocked(); err != nil {
		return 0, err
	}

	lsn := l.nextLSN
	body := make([]byte, lsnLen, lsnLen+len(payload))
	binary.BigEndian.PutUint64(body, lsn)
	body = append(body, payload...)
	rec, err := wire.AppendRecord(nil, body)
	if err != nil {
		return 0, err
	}
	if _, werr := l.active.Write(rec); werr != nil {
		l.err = fmt.Errorf("wal: write %s: %w", l.activeName, werr)
		return 0, l.err
	}
	l.nextLSN++
	l.activeSize += int64(len(rec))
	if !l.opts.NoSync {
		if serr := l.active.Sync(); serr != nil {
			l.err = fmt.Errorf("wal: fsync %s: %w", l.activeName, serr)
			return 0, l.err
		}
	}
	if l.activeSize >= l.opts.segmentBytes() {
		l.rotateLocked()
	}
	return lsn, nil
}

// rotateLocked seals the active segment and opens the next one. A rotation
// failure is sticky like any other log failure.
func (l *Log) rotateLocked() {
	if err := l.active.Close(); err != nil && l.err == nil {
		l.err = fmt.Errorf("wal: seal %s: %w", l.activeName, err)
		return
	}
	l.sealed = append(l.sealed, l.activeName)
	if err := l.openSegmentLocked(); err != nil && l.err == nil {
		l.err = err
	}
}

// Cut closes the active segment, opens the next, and returns every segment
// before the new one, oldest first: once the caller has snapshotted the
// state their records built, it removes them with Drop. LSNs keep growing
// across cuts, so cut segments that survive a crash replay as records at or
// below the snapshot's LSN, which the snapshot's reader skips.
func (l *Log) Cut() ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stateErrLocked(); err != nil {
		return nil, err
	}
	if err := l.active.Close(); err != nil {
		l.err = fmt.Errorf("wal: close %s: %w", l.activeName, err)
		return nil, l.err
	}
	cut := append(l.sealed, l.activeName)
	l.sealed = nil
	if err := l.openSegmentLocked(); err != nil {
		l.err = err
		return nil, err
	}
	return cut, nil
}

// Drop removes segments that Cut returned, oldest first: whatever survives
// a crash here is entirely skippable by LSN.
func (l *Log) Drop(segments []string) error {
	for _, path := range segments {
		if err := l.fs.Remove(path); err != nil {
			return fmt.Errorf("wal: remove %s: %w", path, err)
		}
	}
	return nil
}

func (l *Log) stateErrLocked() error {
	if l.closed {
		return errors.New("wal: closed")
	}
	return l.err
}

// Err returns the sticky failure state (nil while the log is healthy). The
// historian's health probe surfaces this so a poisoned log gets its pod
// restarted through the recovery path.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// NextLSN returns the LSN the next Append will get.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Close syncs and closes the active segment. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.err == nil && !l.opts.NoSync {
		err = l.active.Sync()
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}
