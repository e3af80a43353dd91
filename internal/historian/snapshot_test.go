package historian

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 10; i++ {
		s.Append("a/x", t0.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d", i)))
	}
	s.Append("b/y", t0, []byte(`{"value": 1.5}`))

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Series(), s.Series()) {
		t.Errorf("series = %v vs %v", restored.Series(), s.Series())
	}
	for _, name := range s.Series() {
		if restored.Count(name) != s.Count(name) {
			t.Errorf("%s count = %d vs %d", name, restored.Count(name), s.Count(name))
		}
	}
	p, err := restored.Latest("a/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "9" {
		t.Errorf("latest = %s", p.Payload)
	}
	agg, err := restored.AggregateRange("a/x", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 10 || agg.Mean != 4.5 {
		t.Errorf("agg = %+v", agg)
	}
}

func TestSnapshotPreservesRetention(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 10; i++ {
		s.Append("a", t0.Add(time.Duration(i)*time.Second), []byte("x"))
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count("a") != 3 {
		t.Errorf("count = %d", restored.Count("a"))
	}
	// Retention still enforced after restore.
	for i := 10; i < 20; i++ {
		restored.Append("a", t0.Add(time.Duration(i)*time.Second), []byte("y"))
	}
	if restored.Count("a") != 3 {
		t.Errorf("post-restore count = %d", restored.Count("a"))
	}
}

// TestSnapshotPreservesRollupsPastRetention pins the aggregates-outlive-
// retention contract across checkpoint/recovery: rollup buckets counting
// points already dropped by retention must restore intact, so windowed
// aggregates answer identically before and after a restart.
func TestSnapshotPreservesRollupsPastRetention(t *testing.T) {
	s := NewStore(5) // tight retention: most raw points age out
	for i := 0; i < 50; i++ {
		s.Append("a", t0.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d", i)))
	}
	from, to := t0, t0.Add(time.Hour)
	before, err := s.AggregateRange("a", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if before.Count != 50 {
		t.Fatalf("pre-snapshot aggregate count = %d, want 50 (rollups must outlive retention)", before.Count)
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.AggregateRange("a", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("aggregate changed across restore: %+v, want %+v", after, before)
	}
	if restored.Count("a") != 5 {
		t.Fatalf("restored raw count = %d, want 5", restored.Count("a"))
	}

	// The restored rings keep accepting newer appends.
	restored.Append("a", t0.Add(50*time.Second), []byte("50"))
	grown, err := restored.AggregateRange("a", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Count != 51 || grown.Max != 50 {
		t.Fatalf("post-restore append: %+v, want count 51 max 50", grown)
	}
}

// Snapshots of versions 1 and 2 (no session state, no rollups) are refused
// rather than restored with aggregates rebuilt from retained points only.
func TestRestoreRefusesV1Snapshot(t *testing.T) { testRestoreRefusesVersion(t, 1) }

func TestRestoreRefusesV2Snapshot(t *testing.T) { testRestoreRefusesVersion(t, 2) }

func testRestoreRefusesVersion(t *testing.T, version int) {
	s := NewStore(5)
	for i := 0; i < 50; i++ {
		s.Append("a", t0.Add(time.Duration(i)*time.Second), []byte(fmt.Sprintf("%d", i)))
	}
	snap := s.Snapshot()
	snap.Version = version
	snap.Rollups = nil
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreStore(&buf); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("version-%d snapshot: err = %v, want refusal", version, err)
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	if _, err := RestoreStore(strings.NewReader("{not json")); err == nil {
		t.Error("want decode error")
	}
	if _, err := RestoreStore(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("want version error")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s := NewStore(0)
	s.Append("a", t0, []byte("1"))
	snap := s.Snapshot()
	// Mutating the store after the snapshot must not affect it.
	s.Append("a", t0.Add(time.Second), []byte("2"))
	if len(snap.Series["a"]) != 1 {
		t.Errorf("snapshot mutated: %d points", len(snap.Series["a"]))
	}
}

// TestSnapshotUnderConcurrentWrites hammers a store with concurrent
// appenders while snapshots stream out, then checks that a final quiesced
// snapshot restores to the exact same contents. Run with -race: this is the
// guard against snapshot/append data races.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	store := NewStore(0)
	const (
		writers   = 8
		perWriter = 400
	)
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := store.Snapshot()
				// Every concurrently-taken snapshot must itself be
				// internally consistent: series sorted by time.
				for name, pts := range snap.Series {
					for j := 1; j < len(pts); j++ {
						if pts[j].Time.Before(pts[j-1].Time) {
							t.Errorf("snapshot series %s out of order", name)
							return
						}
					}
				}
				if err := store.WriteSnapshot(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	var writeWG sync.WaitGroup
	base := time.Now()
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			series := fmt.Sprintf("series-%d", w%4) // overlap across writers
			for i := 0; i < perWriter; i++ {
				store.Append(series, base.Add(time.Duration(w*perWriter+i)*time.Millisecond),
					[]byte(fmt.Sprintf("%d", i)))
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	snapWG.Wait()

	if got, want := store.TotalAppended(), uint64(writers*perWriter); got != want {
		t.Fatalf("TotalAppended = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range store.Series() {
		if restored.Count(name) != store.Count(name) {
			t.Errorf("series %s: restored %d points, want %d", name, restored.Count(name), store.Count(name))
		}
	}
}
