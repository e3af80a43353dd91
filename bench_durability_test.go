// Durability benchmarks: the write-ahead-log append path and historian
// crash recovery. These complete the data-plane set in
// bench_dataplane_test.go with the persistence tier the acked pipeline
// rides on. Ungated microscopes, run by hand with
// `go test -run '^$' -bench 'BenchmarkWALAppend|BenchmarkHistorianRecovery' .`.
//
//	BenchmarkWALAppend           — segmented log append, with and without
//	                               fsync (one fsync per append)
//	BenchmarkHistorianRecovery   — Open() replaying snapshot + WAL back
//	                               into a queryable store
package sysml2conf

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/historian"
	"github.com/smartfactory/sysml2conf/internal/wal"
)

var walPayload = []byte(`{"t":"2026-08-06T12:00:00Z","samples":[{"s":"factory/line/wc02/emco/values/actualX","p":"12.25"}]}`)

// BenchmarkWALAppend measures the raw log append path. The nosync variant
// isolates CPU + buffer cost; the fsync variants pay real disk latency, one
// fsync per append, and the parallel case shows appenders queueing on the
// log's lock.
func BenchmarkWALAppend(b *testing.B) {
	run := func(b *testing.B, opts wal.Options, parallel bool) {
		l, err := wal.Open(b.TempDir(), opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.SetBytes(int64(len(walPayload)))
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(walPayload); err != nil {
						b.Fatal(err)
					}
				}
			})
			return
		}
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(walPayload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nosync", func(b *testing.B) {
		run(b, wal.Options{NoSync: true}, false)
	})
	b.Run("fsync", func(b *testing.B) {
		run(b, wal.Options{}, false)
	})
	b.Run("fsync-parallel", func(b *testing.B) {
		run(b, wal.Options{}, true)
	})
}

// BenchmarkHistorianRecovery measures historian.Open replaying persisted
// state — the restart path a supervised historian pod takes after a crash.
// The records=N axis sets how many batches are on disk; snapshots are
// disabled so every record replays from the WAL (the worst case).
func BenchmarkHistorianRecovery(b *testing.B) {
	run := func(b *testing.B, records int) {
		dir := b.TempDir()
		st, err := historian.Open(dir, historian.DurableOptions{
			NoSync: true, SnapshotEvery: 1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		base := time.Unix(0, 0)
		for i := 0; i < records; i++ {
			series := fmt.Sprintf("factory/line/wc%02d/m/values/v", i%8)
			err := st.AppendAcked("bench", uint64(i+1), base.Add(time.Duration(i)*time.Millisecond),
				[]historian.Sample{{Series: series, Payload: walPayload}})
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		onDisk := dirBytes(b, dir)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := historian.Open(dir, historian.DurableOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			if st.TotalAppended() != uint64(records) {
				b.Fatalf("recovered %d records, want %d", st.TotalAppended(), records)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		// After ResetTimer: it deletes user-reported metrics.
		b.ReportMetric(float64(onDisk)/float64(records), "diskB/rec")
	}
	for _, records := range []int{256, 2048} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			run(b, records)
		})
	}
}

// dirBytes sums the on-disk size of a durable store's directory — the
// bytes-per-record metric the binary WAL codec is meant to shrink.
func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return total
}
