// Federated-plant scale benchmark: the full cross-shard message path at
// 1000+ machines. Where bench_dataplane_test.go measures one broker's
// publish/deliver hop, this stands up an in-process federation
// (broker.NewFederation — real TCP loopback links between nodes) and
// measures the pipeline every plant sample rides in a sharded layout:
//
//	publisher → ingress shard → forward uplink → owner shard
//	          → acked bridge pull → consumer shard → subscriber
//
// The publisher deliberately dials a shard that does NOT own the topic,
// so with shards>1 every operation crosses the windowed forward uplink
// and the cumulative-acked bridge pull; shards=1 is the single-broker
// baseline the federated numbers are read against. The publisher is
// pipelined (PublishAsync with a credit window against end-to-end
// delivery), matching how BenchmarkBrokerWire measures the direct path —
// the serial-publisher variant would measure round-trip latency, which
// the federation tier no longer pays per message. An ungated microscope,
// run by hand with `go test -run '^$' -bench BenchmarkFederatedScale .`.
package sysml2conf

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
)

// fedWorkcells is the workcell universe the machines spread over. 100
// workcells keeps per-workcell bridge sessions realistic (10 machines
// per workcell at the 1000-machine point) without making federation
// setup dominate the benchmark.
const fedWorkcells = 100

var fedPayload = []byte(`{"machine":"m0042","variable":"actualX","value":12.25}`)

// BenchmarkFederatedScale sweeps shard counts at a fixed 1000-machine
// plant (plus one 2000-machine point) and reports the end-to-end cost
// per sample of the federated path under a plant-wide acked consumer.
func BenchmarkFederatedScale(b *testing.B) {
	for _, cfg := range []struct{ shards, machines int }{
		{1, 1000},
		{4, 1000},
		{8, 1000},
		{4, 2000},
		{8, 2000},
	} {
		b.Run(fmt.Sprintf("shards=%d/machines=%d", cfg.shards, cfg.machines), func(b *testing.B) {
			benchFederatedScale(b, cfg.shards, cfg.machines)
		})
	}
}

func benchFederatedScale(b *testing.B, shards, machines int) {
	workcells := make([]string, fedWorkcells)
	for i := range workcells {
		workcells[i] = fmt.Sprintf("wc%03d", i)
	}
	fed, err := broker.NewFederation(shards, workcells, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()

	// One topic per machine, machines round-robined over the workcells.
	// The owning shard is fixed per topic by the placement ring; the
	// ingress shard is deliberately a different one (when shards>1) so
	// the op always crosses a shard boundary.
	topics := make([]string, machines)
	ingress := make([]*broker.Client, machines)
	pubs := make([]*broker.Client, shards)
	for s := 0; s < shards; s++ {
		addr, err := fed.Addr(s)
		if err != nil {
			b.Fatal(err)
		}
		if pubs[s], err = broker.DialClient(addr); err != nil {
			b.Fatal(err)
		}
		defer pubs[s].Close()
	}
	for i := range topics {
		topics[i] = fmt.Sprintf("factory/line/%s/m%04d/values/actualX", workcells[i%fedWorkcells], i)
		owner := fed.Nodes[0].OwnerOf(topics[i])
		ingress[i] = pubs[(owner+1)%shards]
	}

	// Plant-wide acked consumer on shard 0: its factory/# session pulls
	// every remote-owned workcell over bridge links, the exact shape of a
	// federated historian or monitor tier.
	consumerAddr, err := fed.Addr(0)
	if err != nil {
		b.Fatal(err)
	}
	cc, err := broker.DialClient(consumerAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	subID, ch, err := cc.SubscribeSession("factory/#", "bench-fed-consumer", 0)
	if err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Uint64
	seenWC := make(chan string, 1024)
	go func() {
		for m := range ch {
			if err := cc.Ack(subID, m.Seq); err != nil {
				return
			}
			delivered.Add(1)
			if string(m.Payload) == "probe" {
				parts := strings.SplitN(m.Topic, "/", 4)
				if len(parts) > 2 {
					select {
					case seenWC <- parts[2]:
					default:
					}
				}
			}
		}
	}()

	// Warm the bridges: messages published before a bridge pull attaches
	// on the owner have no session to queue for, so probe each workcell
	// until one sample makes it through to the consumer.
	attached := make(map[string]bool, fedWorkcells)
	deadline := time.Now().Add(30 * time.Second)
	for wc := 0; wc < fedWorkcells; wc++ {
		probe := fmt.Sprintf("factory/line/%s/probe/values/p", workcells[wc])
		owner := fed.Nodes[0].OwnerOf(probe)
		for !attached[workcells[wc]] {
			if time.Now().After(deadline) {
				b.Fatalf("bridge pull for %s never attached", workcells[wc])
			}
			if err := pubs[owner].Publish(probe, []byte("probe"), false); err != nil {
				b.Fatal(err)
			}
			settle := time.After(20 * time.Millisecond)
		drain:
			for {
				select {
				case got := <-seenWC:
					attached[got] = true
					if got == workcells[wc] {
						break drain
					}
				case <-settle:
					break drain
				}
			}
		}
	}
	// Let straggling probe retries land before taking the baseline.
	for {
		before := delivered.Load()
		time.Sleep(10 * time.Millisecond)
		if delivered.Load() == before {
			break
		}
	}
	baseline := delivered.Load()

	b.SetBytes(int64(len(fedPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ingress[i%machines].PublishAsync(topics[i%machines], fedPayload, false); err != nil {
			b.Fatal(err)
		}
		// Pace against the consumer so uplink windows and acked-session
		// backlogs stay bounded; on the bridge path delivery trails the
		// publish. The wait sleeps instead of spinning runtime.Gosched:
		// on GOMAXPROCS=1 a Gosched busy-loop keeps the sole P running,
		// so socket readiness is only ever delivered by sysmon's forced
		// netpoll every ~10-20ms and the pipeline crawls one ack window
		// per rescue (~78µs/op); a sleeping publisher lets the P park in
		// netpoll and the same pipeline runs ~40x faster.
		for uint64(i+1)-(delivered.Load()-baseline) > 512 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	// The op is the whole pipeline: don't stop the clock until every
	// published sample came out the consumer end.
	for delivered.Load()-baseline < uint64(b.N) {
		if time.Now().After(deadline.Add(60 * time.Second)) {
			b.Fatalf("delivered %d of %d published samples", delivered.Load()-baseline, b.N)
		}
		time.Sleep(20 * time.Microsecond)
	}
	b.StopTimer()

	var bridged uint64
	for _, n := range fed.Nodes {
		bridged += n.NodeStats().BridgedIn
	}
	if shards > 1 && bridged == 0 {
		b.Fatal("no samples crossed a bridge link; the benchmark measured nothing federated")
	}
}
