package deploy

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/icelab"
)

// federatedBundle generates the chaos-test plant slice with the broker
// federated across shards nodes.
func federatedBundle(t *testing.T, shards int) *codegen.Bundle {
	t.Helper()
	full := icelab.ICELab()
	spec := icelab.FactorySpec{
		TopologyName: full.TopologyName, Enterprise: full.Enterprise,
		Site: full.Site, Area: full.Area, Line: full.Line,
	}
	for _, m := range full.Machines {
		switch m.Name {
		case "speaATE", "warehouse", "rbKairos1":
			spec.Machines = append(spec.Machines, m)
		}
	}
	factory, _, err := icelab.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := codegen.Generate(factory, codegen.GenOptions{
		Options: codegen.Options{Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// TestFederatedDeployEndToEnd: applying a federated bundle brings up one
// broker node per shard, every component lands on its own shard's broker,
// and plant data still flows machine → OPC UA → broker tier → historian
// across the federation.
func TestFederatedDeployEndToEnd(t *testing.T) {
	bundle := federatedBundle(t, 3)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(3, 32)
	cluster.MachineEndpoints = resolver
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	for s := 0; s < 3; s++ {
		if _, err := cluster.BrokerShardAddr(s); err != nil {
			t.Fatalf("broker shard %d not serving: %v", s, err)
		}
	}

	// Every historian eventually ingests samples from its machines even
	// though publishers and subscribers sit on different broker nodes.
	for _, sc := range bundle.Intermediate.Storage {
		name := sc.Name
		waitFor(t, 30*time.Second, "historian "+name+" ingesting", func() bool {
			return historianPoints(cluster, name) > 0
		})
	}

	// The plant keeps publishing, so the cluster-wide sum is bracketed by
	// the per-shard sums read before and after it, not equal to either.
	perShardSum := func() (published uint64) {
		shardStats := cluster.BrokerShardStats()
		if len(shardStats) != 3 {
			t.Fatalf("BrokerShardStats returned %d entries, want 3", len(shardStats))
		}
		for _, s := range shardStats {
			published += s.Published
		}
		return published
	}
	before := perShardSum()
	sumP := cluster.BrokerStats().Published
	if after := perShardSum(); sumP < before || sumP > after {
		t.Errorf("BrokerStats sum %d outside the per-shard sums read around it, %d..%d", sumP, before, after)
	}
}

// TestFederatedChaosAuditZeroLoss is the federation durability audit:
// numbered samples enter the federation through an ingress shard that
// does NOT own their topic, get forwarded to the owner shard, and are
// consumed through an acked session on a third shard via a bridge link —
// while the ingress broker node is killed (and supervisor-restarted)
// and the consumer's bridge to the owner is partitioned and healed.
// Every sample must arrive exactly once: the owner's session state is
// the single dedup point for publisher retries across the ingress
// restart, and bridge replay-from-ack covers the partition gap.
func TestFederatedChaosAuditZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("federated chaos audit skipped in -short mode")
	}
	const shards = 3
	bundle := federatedBundle(t, shards)
	pl := bundle.Intermediate.Placement
	if pl == nil {
		t.Fatal("federated bundle has no placement")
	}

	// Pick a workcell and the three distinct roles around it: X owns its
	// topics, A is the ingress the publisher dials, C hosts the consumer.
	var wc string
	var workcells []string
	for name := range pl.Workcells {
		if name != "_monitor" {
			workcells = append(workcells, name)
		}
	}
	sort.Strings(workcells)
	if len(workcells) == 0 {
		t.Fatal("no workcells placed")
	}
	wc = workcells[0]
	owner := pl.Workcells[wc]
	ingress, consumer := -1, -1
	for s := 0; s < shards; s++ {
		if s == owner {
			continue
		}
		if ingress < 0 {
			ingress = s
		} else if consumer < 0 {
			consumer = s
		}
	}
	topic := fmt.Sprintf("factory/audit/%s/auditor/values/counter", wc)
	bridgeLink := fmt.Sprintf("bridge:s%d-s%d", consumer, owner)

	const seed = 29
	inj := faultinject.New(seed)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(3, 32)
	cluster.MachineEndpoints = resolver
	cluster.FaultInjector = inj
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// Acked consumer on shard C. Its broker node is never killed, so one
	// connection lives through the whole audit; the chaos happens behind
	// it, on the ingress node and the bridge link.
	consumerAddr, err := cluster.BrokerShardAddr(consumer)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := broker.DialClient(consumerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	subID, ch, err := cc.SubscribeSession(topic, "fed-audit-consumer", 0)
	if err != nil {
		t.Fatal(err)
	}

	// The owner only queues for the consumer's session once the bridge
	// pull is attached; probe until one message crosses all three shards
	// so no numbered sample is published into the pre-attach window.
	probe := func() error {
		addr, err := cluster.BrokerShardAddr(ingress)
		if err != nil {
			return err
		}
		pc, err := broker.DialClient(addr)
		if err != nil {
			return err
		}
		defer pc.Close()
		return pc.Publish(topic, []byte("probe"), false)
	}
	waitFor(t, 20*time.Second, "bridge pull attached", func() bool {
		if err := probe(); err != nil {
			return false
		}
		select {
		case m := <-ch:
			_ = cc.Ack(subID, m.Seq)
			return string(m.Payload) == "probe"
		case <-time.After(50 * time.Millisecond):
			return false
		}
	})

	// Publisher through the ingress shard: redials on every connection
	// death (the ingress node is killed mid-run and comes back on a new
	// port) and retries each sequence until the forward is acknowledged.
	// Retried sequences are deduped by the owner shard, which survives
	// the ingress restart untouched.
	const total = 900
	pubDone := make(chan error, 1)
	go func() {
		var pc *broker.Client
		defer func() {
			if pc != nil {
				pc.Close()
			}
		}()
		deadline := time.Now().Add(90 * time.Second)
		for i := 1; i <= total; i++ {
			payload := []byte(fmt.Sprintf("n=%d", i))
			for {
				if time.Now().After(deadline) {
					pubDone <- fmt.Errorf("publish of sample %d timed out", i)
					return
				}
				if pc == nil || pc.Err() != nil {
					if pc != nil {
						pc.Close()
					}
					pc = nil
					addr, err := cluster.BrokerShardAddr(ingress)
					if err != nil {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					c2, err := broker.DialClient(addr)
					if err != nil {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					pc = c2
				}
				if _, err := pc.PublishSeq(topic, payload, false, "fed-audit-publisher", uint64(i)); err != nil {
					continue
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		pubDone <- nil
	}()

	// Chaos: kill the ingress broker node (supervised restart), then
	// partition the consumer's bridge to the owner and heal it.
	time.Sleep(150 * time.Millisecond)
	ingressPod := codegen.BrokerShardName(ingress)
	if err := cluster.KillPod(ingressPod); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "ingress broker restart", func() bool {
		p, ok := cluster.PodStatus(ingressPod)
		return ok && p.Phase == PodRunning && p.Ready
	})
	time.Sleep(100 * time.Millisecond)
	if err := cluster.PartitionComponent(bridgeLink, true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := cluster.PartitionComponent(bridgeLink, false); err != nil {
		t.Fatal(err)
	}

	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}

	// Drain: every numbered sample exactly once, in spite of replay
	// overlap after the bridge reattach (deduped on the consumer shard
	// before local delivery).
	seen := make(map[int]int, total)
	received := 0
	deadline := time.Now().Add(60 * time.Second)
	for received < total && time.Now().Before(deadline) {
		select {
		case m := <-ch:
			_ = cc.Ack(subID, m.Seq)
			var n int
			if _, err := fmt.Sscanf(string(m.Payload), "n=%d", &n); err != nil {
				continue // probe
			}
			seen[n]++
			received++
		case <-time.After(5 * time.Second):
		}
	}
	missing, dup := 0, 0
	for i := 1; i <= total; i++ {
		switch {
		case seen[i] == 0:
			missing++
		case seen[i] > 1:
			dup++
		}
	}
	if missing > 0 || dup > 0 {
		t.Errorf("federated audit: %d received, %d missing, %d duplicated (want %d exactly once)",
			received, missing, dup, total)
	}

	if refused := cluster.BrokerStats().Refused; refused != 0 {
		t.Errorf("broker tier refused %d acked messages, want 0", refused)
	}
	stats := cluster.BrokerShardStats()
	byShard := map[int]broker.NodeStats{}
	for _, s := range stats {
		byShard[s.Shard] = s
	}
	if byShard[owner].Forwarded+byShard[ingress].Forwarded == 0 {
		t.Error("no publishes were forwarded cross-shard; the audit did not cross a shard boundary")
	}
	if byShard[consumer].BridgedIn == 0 {
		t.Error("consumer shard bridged in no messages; the audit did not cross a bridge")
	}
	if byShard[consumer].Reconnects == 0 {
		t.Error("consumer shard's bridge never reconnected; the partition did not bite")
	}
	// The pipelined windows must drain once the audit's traffic stops: a
	// residual in-flight forward or unacked bridge republish would mean a
	// completion was lost somewhere in the chaos schedule. Completions
	// trail the consumer's last receipt by an ack round trip, so poll.
	waitFor(t, 10*time.Second, "federation windows drained", func() bool {
		for _, s := range cluster.BrokerShardStats() {
			if s.ForwardInFlight != 0 || s.BridgeInFlight != 0 {
				return false
			}
		}
		return true
	})
	p, _ := cluster.PodStatus(ingressPod)
	if p.Restarts < 1 {
		t.Errorf("ingress broker restarted %d times, want >= 1", p.Restarts)
	}
}
