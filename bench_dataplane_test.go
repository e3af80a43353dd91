// Data-plane benchmarks: the runtime message path from publisher to
// subscriber. Where bench_test.go measures the *build* side (model ->
// configuration), these measure the *run* side the configuration deploys:
// broker subscription matching and fan-out, the framed TCP wire, and
// historian ingestion. Ungated microscopes, run by hand with
// `go test -run '^$' -bench 'BenchmarkBroker|BenchmarkHistorianIngest' .`.
//
//	BenchmarkBrokerFanout    — in-process publish across a subscribers x
//	                           topics matrix (selective and broadcast)
//	BenchmarkBrokerWire      — end-to-end TCP publish -> deliver
//	BenchmarkHistorianIngest — store append path, single vs batched
package sysml2conf

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/historian"
)

var fanoutPayload = []byte(`{"machine":"emco","variable":"actualX","value":12.25}`)

// BenchmarkBrokerFanout measures the in-process publish path across a
// subscribers x topics matrix.
//
//   - selective: every subscriber filters its own exact topic, publishes
//     round-robin — one match per publish. This is the bridge-per-variable
//     shape the generated configuration produces, and the case where a flat
//     O(subscriptions) filter scan hurts most.
//   - broadcast: every subscriber filters "bench/#" against one topic — all
//     match, so the cost is delivery-bound in any implementation.
func BenchmarkBrokerFanout(b *testing.B) {
	for _, subs := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("subs=%d/selective", subs), func(b *testing.B) {
			bk := broker.New()
			defer bk.Close()
			topics := make([]string, subs)
			for i := 0; i < subs; i++ {
				topics[i] = fmt.Sprintf("bench/wc%02d/m%03d/values/actualX", i%8, i)
				if _, _, err := bk.Subscribe(topics[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(fanoutPayload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bk.Publish(topics[i%subs], fanoutPayload, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("subs=%d/broadcast", subs), func(b *testing.B) {
			bk := broker.New()
			defer bk.Close()
			for i := 0; i < subs; i++ {
				if _, _, err := bk.Subscribe("bench/#"); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(fanoutPayload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bk.Publish("bench/wc02/emco/values/actualX", fanoutPayload, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBrokerWire measures the end-to-end TCP transport at its
// operating shape: a pipelined publisher (PublishAsync, bounded in-flight
// window) feeding a subscribed second client, the path every bridge sample
// takes to the historian. The window (192) stays under the broker's
// per-subscriber ring (256) so drop-oldest shedding never hides losses,
// and the clock does not stop until every published message was delivered
// — the number is the true amortized per-message wire cost, not a staging
// cost. BenchmarkBrokerWireSync keeps the old one-roundtrip-per-op shape.
func BenchmarkBrokerWire(b *testing.B) {
	bk := broker.New()
	if err := bk.Serve("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer bk.Close()

	sub, err := broker.DialClient(bk.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	_, ch, err := sub.Subscribe("wire/#")
	if err != nil {
		b.Fatal(err)
	}
	// The in-flight window is a credit semaphore: the publisher acquires a
	// slot before each publish and the consumer releases it on delivery.
	// Blocking (rather than spin-polling a counter) matters — on a
	// single-core box a spinning publisher starves the five goroutine hops
	// every message needs, and the scheduler overhead becomes the number.
	const window = 192
	sem := make(chan struct{}, window)
	var delivered atomic.Uint64
	go func() {
		for range ch {
			delivered.Add(1)
			<-sem
		}
	}()

	pub, err := broker.DialClient(bk.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	// One synchronous roundtrip and its delivery before the clock starts:
	// the timed loop measures the steady state, not connection warm-up.
	sem <- struct{}{}
	if err := pub.Publish("wire/wc02/emco/values/actualX", fanoutPayload, false); err != nil {
		b.Fatal(err)
	}
	for delivered.Load() < 1 {
		runtime.Gosched()
	}

	b.SetBytes(int64(len(fanoutPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		if err := pub.PublishAsync("wire/wc02/emco/values/actualX", fanoutPayload, false); err != nil {
			b.Fatal(err)
		}
	}
	// Draining the window proves every published message was delivered —
	// the clock stops on true end-to-end completion, not on staging.
	for i := 0; i < window; i++ {
		sem <- struct{}{}
	}
	b.StopTimer()
	if got := delivered.Load(); got != uint64(b.N)+1 {
		b.Fatalf("delivered %d of %d published messages", got, b.N+1)
	}
}

// BenchmarkBrokerWireSync is the legacy serial shape: one acked publish
// roundtrip plus delivery per op. It measures wire latency where
// BenchmarkBrokerWire measures wire throughput.
func BenchmarkBrokerWireSync(b *testing.B) {
	bk := broker.New()
	if err := bk.Serve("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer bk.Close()

	sub, err := broker.DialClient(bk.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	_, ch, err := sub.Subscribe("wire/#")
	if err != nil {
		b.Fatal(err)
	}
	received := make(chan struct{}, 1024)
	go func() {
		for range ch {
			received <- struct{}{}
		}
	}()

	pub, err := broker.DialClient(bk.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	b.SetBytes(int64(len(fanoutPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("wire/wc02/emco/values/actualX", fanoutPayload, false); err != nil {
			b.Fatal(err)
		}
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			b.Fatal("delivery timed out")
		}
	}
}

// BenchmarkHistorianIngest measures the store's append path over 64 series
// with monotonic timestamps — the shape of broker-fed ingestion.
func BenchmarkHistorianIngest(b *testing.B) {
	const series = 64
	names := make([]string, series)
	for i := range names {
		names[i] = fmt.Sprintf("factory/line1/wc%02d/m%02d/values/actualX", i%8, i)
	}
	base := time.Unix(0, 0)
	b.Run("append", func(b *testing.B) {
		st := historian.NewStore(4096)
		b.SetBytes(int64(len(fanoutPayload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Append(names[i%series], base.Add(time.Duration(i)*time.Microsecond), fanoutPayload)
		}
	})
	b.Run("batch", func(b *testing.B) {
		st := historian.NewStore(4096)
		const batch = 64
		samples := make([]historian.Sample, batch)
		for i := range samples {
			samples[i] = historian.Sample{Series: names[i%series], Payload: fanoutPayload}
		}
		b.SetBytes(int64(len(fanoutPayload) * batch))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.AppendBatch(base.Add(time.Duration(i)*time.Microsecond), samples)
		}
	})
}
