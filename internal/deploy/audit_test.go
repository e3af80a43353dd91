package deploy

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
)

// TestChaosAuditZeroLoss is the end-to-end durability audit: numbered
// samples are published through the acked pipeline while the historian pod
// is repeatedly crash-restarted (recovering from its WAL each time) and the
// broker is partitioned mid-stream. Every published sequence number must
// end up in the recovered historian exactly once — no loss from the
// crashes, no duplicates from the redeliveries.
func TestChaosAuditZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos audit skipped in -short mode")
	}
	bundle := chaosBundle(t)
	const seed = 23
	inj := faultinject.New(seed)
	fleet, resolver, err := StartFleetWrapped(bundle.Intermediate.Machines, 5*time.Millisecond,
		func(name string, ln net.Listener) net.Listener {
			return inj.Wrap("machine:"+name, ln)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(2, 32)
	cluster.MachineEndpoints = resolver
	cluster.FaultInjector = inj
	cluster.DataDir = t.TempDir()
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// Publish into a concrete topic under the first historian's filter.
	sc := bundle.Intermediate.Storage[0]
	hist := sc.Name
	topic := strings.TrimSuffix(sc.Topics[0], "#") + "audit/counter"

	const total = 1500
	pubDone := make(chan error, 1)
	go func() {
		var bc *broker.Client
		defer func() {
			if bc != nil {
				bc.Close()
			}
		}()
		deadline := time.Now().Add(90 * time.Second)
		for i := 1; i <= total; i++ {
			payload := []byte(fmt.Sprintf(`{"n":%d}`, i))
			for {
				if time.Now().After(deadline) {
					pubDone <- fmt.Errorf("publish of sample %d timed out", i)
					return
				}
				// The broker partition severs this connection; redial until
				// it heals. PublishSeq retries with the same sequence are
				// deduped broker-side, so a retry can never double-publish.
				if bc == nil || bc.Err() != nil {
					if bc != nil {
						bc.Close()
					}
					bc = nil
					c2, err := broker.DialClient(cluster.BrokerAddr())
					if err != nil {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					bc = c2
				}
				if _, err := bc.PublishSeq(topic, payload, false, "audit-publisher", uint64(i)); err != nil {
					continue
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		pubDone <- nil
	}()

	// Chaos while the publisher runs: three historian crashes (each restart
	// goes through snapshot + WAL recovery) and one broker partition.
	for round := 0; round < 3; round++ {
		time.Sleep(150 * time.Millisecond)
		if err := cluster.KillPod(hist); err != nil {
			t.Fatal(err)
		}
		// The restart count too: until the liveness probe notices the kill
		// the pod still shows its old Running and Ready.
		waitFor(t, 20*time.Second, "historian restart after kill", func() bool {
			p, ok := cluster.PodStatus(hist)
			return ok && p.Phase == PodRunning && p.Ready && p.Restarts > round
		})
		if round == 1 {
			if err := cluster.PartitionComponent("broker", true); err != nil {
				t.Fatal(err)
			}
			time.Sleep(60 * time.Millisecond)
			if err := cluster.PartitionComponent("broker", false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}

	waitFor(t, 30*time.Second, "all audit samples ingested", func() bool {
		h := cluster.Historian(hist)
		return h != nil && h.Store != nil && h.Store.Count(topic) >= total
	})

	// Exactly-once: every sequence present, none twice.
	h := cluster.Historian(hist)
	pts := h.Store.Range(topic, time.Time{}, time.Now().Add(time.Hour))
	seen := make(map[int]int, total)
	for _, p := range pts {
		var v struct {
			N int `json:"n"`
		}
		if err := json.Unmarshal(p.Payload, &v); err != nil {
			t.Fatalf("undecodable audit payload %q: %v", p.Payload, err)
		}
		seen[v.N]++
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
	if missing > 0 || dup > 0 || len(pts) != total {
		t.Errorf("audit: %d stored, %d missing, %d duplicated (want %d exactly once)",
			len(pts), missing, dup, total)
	}

	p, _ := cluster.PodStatus(hist)
	if p.Restarts < 3 {
		t.Errorf("historian restarted %d times, want >= 3 (the audit must span crashes)", p.Restarts)
	}
	if refused := cluster.BrokerStats().Refused; refused != 0 {
		t.Errorf("broker refused %d acked messages, want 0", refused)
	}
}
