package deploy

import (
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/faultinject"
)

// fastProbes configures a cluster for quick supervision tests: 2ms probe
// unit makes a manifest periodSeconds:5 probe fire every 10ms.
func fastProbes(c *Cluster) {
	c.PollPeriod = 5 * time.Millisecond
	c.ProbeUnit = 2 * time.Millisecond
}

// historianPoints reads the retained store's append counter, tolerating the
// window where the historian service is down mid-restart.
func historianPoints(c *Cluster, name string) uint64 {
	h := c.Historian(name)
	if h == nil || h.Store == nil {
		return 0
	}
	return h.Store.TotalAppended()
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestKillPodRestartsAndPreservesHistorianData(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	name := cluster.Historians()[0]
	waitFor(t, 10*time.Second, "historian ingest", func() bool {
		return historianPoints(cluster, name) > 0
	})
	before := historianPoints(cluster, name)

	if err := cluster.KillPod(name); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "supervised restart", func() bool {
		p, ok := cluster.PodStatus(name)
		return ok && p.Restarts >= 1 && p.Phase == PodRunning && p.Ready
	})

	// The restarted historian ingests into the same store: nothing lost,
	// and fresh data accumulates on top.
	if got := historianPoints(cluster, name); got < before {
		t.Errorf("restart lost data: %d < %d points", got, before)
	}
	waitFor(t, 10*time.Second, "fresh ingest after restart", func() bool {
		return historianPoints(cluster, name) > before
	})

	types := map[string]bool{}
	for _, e := range cluster.Events() {
		if e.Pod == name+"-0" {
			types[e.Type] = true
		}
	}
	for _, want := range []string{EventKilled, EventUnhealthy, EventRestarted} {
		if !types[want] {
			t.Errorf("event log lacks %s for %s: %v", want, name, types)
		}
	}
}

func TestBrokerKillCascadesAndHeals(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// A one-broker plant runs its broker as shard 0 of 1.
	oldAddr := cluster.BrokerAddr()
	if addr, err := cluster.BrokerShardAddr(0); err != nil || addr != oldAddr {
		t.Fatalf("BrokerShardAddr(0) = %q, %v; want BrokerAddr() %q", addr, err, oldAddr)
	}
	if ss := cluster.BrokerShardStats(); len(ss) != 1 || ss[0].Shard != 0 {
		t.Fatalf("BrokerShardStats() = %+v, want one entry for shard 0", ss)
	}
	if err := cluster.KillPod("message-broker"); err != nil {
		t.Fatal(err)
	}

	// The broker restarts on a fresh port; every broker-dependent pod goes
	// live-unhealthy, restarts, and dials the new address.
	waitFor(t, 20*time.Second, "broker supervised restart", func() bool {
		p, ok := cluster.PodStatus("message-broker")
		return ok && p.Restarts >= 1
	})
	waitFor(t, 20*time.Second, "downstream restarts after broker kill", func() bool {
		for _, pod := range cluster.Pods() {
			switch pod.Component {
			case "opcua-client", "historian", "monitor":
				if pod.Restarts < 1 {
					return false
				}
			}
		}
		return true
	})
	waitFor(t, 20*time.Second, "cluster convergence after broker kill", func() bool {
		return cluster.AllReady()
	})
	if addr := cluster.BrokerAddr(); addr == "" || addr == oldAddr {
		t.Errorf("broker addr after kill = %q (old %q)", addr, oldAddr)
	}
	if addr, err := cluster.BrokerShardAddr(0); err != nil || addr == oldAddr || addr != cluster.BrokerAddr() {
		t.Errorf("shard 0 after kill = %q, %v; want the new broker address (old %q)", addr, err, oldAddr)
	}

	// Data flows end-to-end again through the new broker.
	name := cluster.Historians()[0]
	before := historianPoints(cluster, name)
	waitFor(t, 10*time.Second, "data flow through new broker", func() bool {
		return historianPoints(cluster, name) > before
	})
	// Shard 0 of 1 owns every topic: nothing is forwarded or bridged.
	ss := cluster.BrokerShardStats()
	if len(ss) != 1 || ss[0].Forwarded != 0 || ss[0].BridgedIn != 0 || ss[0].Reconnects != 0 {
		t.Errorf("one-broker plant federated traffic: %+v", ss)
	}
}

func TestBrokerPartitionCrashLoopAndRecovery(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	cluster.FaultInjector = faultinject.New(99)
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// Partition the broker: live connections die and redials are refused,
	// so broker-dependent pods fail their restarts repeatedly and enter
	// CrashLoopBackOff. The broker pod itself stays alive — its listener is
	// healthy, only its traffic is severed.
	if err := cluster.PartitionComponent("broker", true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "a pod entering CrashLoopBackOff", func() bool {
		for _, p := range cluster.Pods() {
			if p.CrashLoop {
				return true
			}
		}
		return false
	})
	if p, _ := cluster.PodStatus("message-broker"); p.Phase != PodRunning {
		t.Errorf("broker pod phase during partition = %s, want Running", p.Phase)
	}

	// Heal: the crash-looping pods' next restart attempt succeeds and the
	// whole plant converges back to Ready.
	if err := cluster.PartitionComponent("broker", false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "convergence after partition heal", func() bool {
		return cluster.AllReady()
	})
	for _, p := range cluster.Pods() {
		if p.CrashLoop {
			t.Errorf("%s still in CrashLoopBackOff after heal", p.Name)
		}
	}
	crashLoops := 0
	for _, e := range cluster.Events() {
		if e.Type == EventCrashLoop {
			crashLoops++
		}
	}
	if crashLoops == 0 {
		t.Error("no CrashLoopBackOff events recorded")
	}
}

func TestShutdownDrainsInOrderAndMarksPods(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}

	cluster.Shutdown()
	cluster.Shutdown() // idempotent: second call is a no-op

	for _, p := range cluster.Pods() {
		if p.Phase != PodSucceeded {
			t.Errorf("%s phase after shutdown = %s, want Succeeded", p.Name, p.Phase)
		}
		if p.Ready {
			t.Errorf("%s still Ready after shutdown", p.Name)
		}
	}
	if cluster.AllRunning() || cluster.AllReady() {
		t.Error("cluster reports running/ready after shutdown")
	}
	if cluster.BrokerAddr() != "" {
		t.Error("broker addr survives shutdown")
	}
}
