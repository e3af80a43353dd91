package deploy

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/historian"
	"github.com/smartfactory/sysml2conf/internal/k8s"
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
	// The full ICE Lab runs all five kinds (the milling workcell alone
	// has no monitor).
	cluster, _ := deployICELab(t)

	// Every running component is wrapped in a recorder, so the drain order
	// is observed, not inferred.
	var stops, stoppedPods stopLog
	pods := map[string]int{} // by kind
	cluster.mu.Lock()
	for _, p := range cluster.pods {
		p.comp = &recordingComponent{component: p.comp, kind: p.status.Component, log: &stops,
			pod: p.status.Name, pods: &stoppedPods}
		pods[p.status.Component]++
	}
	cluster.mu.Unlock()
	if len(pods) != len(kinds) {
		t.Fatalf("the plant runs the kinds %v, want all %d", pods, len(kinds))
	}

	cluster.Shutdown()
	cluster.Shutdown() // idempotent: second call is a no-op

	drain := []string{"opcua-client", "opcua-server", "monitor", "historian", "message-broker"}
	got := stops.entries()
	stopped := map[string]int{}
	for i, kind := range got {
		stopped[kind]++
		if i > 0 && slices.Index(drain, got[i-1]) > slices.Index(drain, kind) {
			t.Errorf("shutdown stopped a %s before a %s; want the order %v: %v", got[i-1], kind, drain, got)
		}
	}
	if !maps.Equal(stopped, pods) {
		t.Errorf("shutdown stopped %v, want each pod's component once: %v", stopped, pods)
	}
	// One order: Apply started the pods in the reverse of the stop order.
	var started []string
	for _, e := range cluster.Events() {
		if e.Type == EventStarted {
			started = append(started, e.Pod)
		}
	}
	slices.Reverse(started)
	if got := stoppedPods.entries(); !slices.Equal(started, got) {
		t.Errorf("Apply started %v (reversed), shutdown stopped %v", started, got)
	}

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

// stopLog is an ordered, concurrency-safe record of test events.
type stopLog struct {
	mu  sync.Mutex
	log []string
}

func (l *stopLog) add(e string) {
	l.mu.Lock()
	l.log = append(l.log, e)
	l.mu.Unlock()
}

func (l *stopLog) entries() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.log)
}

// recordingComponent wraps a pod's real component and logs its kind and
// its pod's name when it is stopped.
type recordingComponent struct {
	component
	kind string
	log  *stopLog
	pod  string
	pods *stopLog
}

func (r *recordingComponent) Stop() {
	r.log.add(r.kind)
	r.pods.add(r.pod)
	r.component.Stop()
}

// fakeComponent is a component that runs nothing: it fails its liveness
// checks with health, counts them and logs "stop <name>" when stopped.
type fakeComponent struct {
	name   string
	health error
	log    *stopLog

	mu            sync.Mutex
	checks, stops int
}

func (f *fakeComponent) Health() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checks++
	return f.health
}

func (f *fakeComponent) Stop() {
	f.mu.Lock()
	f.stops++
	f.mu.Unlock()
	f.log.add("stop " + f.name)
}

func (f *fakeComponent) counts() (checks, stops int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checks, f.stops
}

// fakePod puts a Running pod record for Deployment name into the cluster,
// with comp running behind it, as startDeployment leaves one of kind k.
func fakePod(c *Cluster, name string, k kind, comp component) *podRecord {
	p := &podRecord{
		status: Pod{Name: name + "-0", Component: "fake", Phase: PodRunning, Ready: true},
		kind:   k,
		deploy: k8s.Object{Raw: map[string]any{
			"kind":     "Deployment",
			"metadata": map[string]any{"name": name},
		}},
		comp: comp,
	}
	c.mu.Lock()
	c.pods[p.status.Name] = p
	c.mu.Unlock()
	return p
}

func TestLivenessRestartStopsOldComponentOnce(t *testing.T) {
	cluster := NewCluster(1, 4)
	cluster.ProbeUnit = time.Millisecond
	defer cluster.Shutdown()

	var log stopLog
	old := &fakeComponent{name: "old", health: errors.New("wedged"), log: &log}
	fresh := &fakeComponent{name: "new", log: &log}
	start := func(*Cluster, *podRecord) (component, error) {
		log.add("start new")
		return fresh, nil
	}
	const threshold = 3
	p := fakePod(cluster, "fake", kind{start: start}, old)
	cluster.startSupervisor(p, k8s.PodPolicy{
		Liveness: &k8s.ProbeSpec{PeriodSeconds: 1, FailureThreshold: threshold},
	})

	waitFor(t, 5*time.Second, "the supervised restart", func() bool {
		s, _ := cluster.PodStatus("fake")
		return s.Restarts >= 1
	})
	// The new component passes its checks: give the probe loop time to run
	// several, which must restart nothing more.
	waitFor(t, 5*time.Second, "probes of the new component", func() bool {
		checks, _ := fresh.counts()
		return checks >= 2*threshold
	})

	if checks, stops := old.counts(); checks != threshold || stops != 1 {
		t.Errorf("old component: %d liveness checks and %d stops, want %d and 1", checks, stops, threshold)
	}
	if got, want := log.entries(), []string{"stop old", "start new"}; !slices.Equal(got, want) {
		t.Errorf("restart did %v, want %v", got, want)
	}
	s, _ := cluster.PodStatus("fake")
	if s.Restarts != 1 || s.Phase != PodRunning || !s.Ready {
		t.Errorf("pod after restart: restarts=%d phase=%s ready=%v, want 1, Running, true", s.Restarts, s.Phase, s.Ready)
	}
	var events []string
	for _, e := range cluster.Events() {
		if e.Pod == "fake-0" {
			events = append(events, e.Type)
		}
	}
	if want := []string{EventUnhealthy, EventRestarted}; !slices.Equal(events, want) {
		t.Errorf("events = %v, want %v", events, want)
	}
}

func TestKillPodKeepsHistorianStoreRemoveDiscardsIt(t *testing.T) {
	cluster := NewCluster(1, 4)
	defer cluster.Shutdown()

	var log stopLog
	h := &fakeComponent{name: "historian", log: &log}
	p := fakePod(cluster, "historian-1", kinds["historian"], h)
	store := historian.NewStore(16)
	p.store = store

	for i := 0; i < 2; i++ { // a second kill finds nothing running
		if err := cluster.KillPod("historian-1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, stops := h.counts(); stops != 1 {
		t.Errorf("KillPod twice stopped the historian %d times, want 1", stops)
	}
	cluster.mu.Lock()
	kept, comp := cluster.pods["historian-1-0"], p.comp
	cluster.mu.Unlock()
	if kept != p || kept.store != store || comp != nil {
		t.Errorf("after KillPod: record kept=%v, store kept=%v, component %v; want the record with its store and nothing running",
			kept == p, kept != nil && kept.store == store, comp)
	}

	if err := cluster.Remove("historian-1"); err != nil {
		t.Fatal(err)
	}
	cluster.mu.Lock()
	_, left := cluster.pods["historian-1-0"]
	cluster.mu.Unlock()
	if left {
		t.Error("Remove left the pod record, and the historian store with it")
	}
	if _, stops := h.counts(); stops != 1 {
		t.Errorf("Remove of a killed pod stopped the historian again (%d stops)", stops)
	}
}
