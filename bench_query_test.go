// Historian serving-tier benchmark: cached aggregate reads through the
// query layer while ingest keeps mutating the store — the dashboard-fleet
// shape where hundreds of panels poll the same settled windows as fresh
// telemetry streams in. An ungated microscope, run by hand with
// `go test -run '^$' -bench BenchmarkHistorianQuery .`.
//
//	BenchmarkHistorianQuery — readers=N concurrent aggregate queries over
//	                          settled history, chaos writer running
package sysml2conf

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/historian"
)

// BenchmarkHistorianQuery measures the per-query latency of the cached
// aggregate path under reader fan-in. Readers sweep a fixed set of settled
// 60-window queries (all cache-resident after the first pass); a background
// writer streams batches into mostly-separate series — plus a periodic
// append and block seal on the queried ones, so the cache invalidation
// protocol runs for real — modelling live ingest contending with a
// dashboard fleet.
func BenchmarkHistorianQuery(b *testing.B) {
	const (
		readSeries  = 16
		writeSeries = 16
		preload     = 2560 // points per read series; 5 sealed blocks, 256s of history
		window      = time.Second
		span        = 60 * time.Second
	)
	for _, readers := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			st := historian.NewStore(0)
			base := time.Unix(0, 0)
			names := make([]string, readSeries)
			for i := range names {
				names[i] = fmt.Sprintf("factory/line1/wc%02d/m%02d/values/actualX", i%8, i)
				for j := 0; j < preload; j++ {
					payload := []byte(fmt.Sprintf("%d.25", j%97))
					st.Append(names[i], base.Add(time.Duration(j)*100*time.Millisecond), payload)
				}
			}
			qs := historian.NewQueryServer()
			qs.Register("bench", st)

			// Chaos writer: a steady stream into its own series, with every
			// 64th batch landing on a read series (advancing its head toward
			// the next seal) so reader cache entries do get invalidated and
			// recomputed mid-run.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := []byte("12.25")
				at := base.Add(time.Duration(preload) * 100 * time.Millisecond)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					at = at.Add(time.Millisecond)
					if i%64 == 63 {
						st.Append(names[i%readSeries], at, payload)
					} else {
						st.Append(fmt.Sprintf("factory/line2/wc00/m%02d/values/load", i%writeSeries), at, payload)
					}
					if i%32 == 31 {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()

			// Each reader loops over the settled query set: 60 one-second
			// windows per call, distinct (series, from) pairs across calls.
			procs := runtime.GOMAXPROCS(0)
			b.SetParallelism((readers + procs - 1) / procs)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					series := names[i%readSeries]
					from := base.Add(time.Duration(i%4) * span)
					if _, err := qs.Aggregate("bench", series, from, from.Add(span), window); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
			hits, misses := qs.CacheStats()
			if total := hits + misses; total > 0 {
				b.ReportMetric(float64(hits)/float64(total)*100, "hit%")
			}
		})
	}
}
