package deploy

import (
	"fmt"
	"maps"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
)

// reconfigRig deploys the full ICE Lab and returns everything needed to
// evolve it.
type reconfigRig struct {
	cluster *Cluster
	fleet   *machinesim.Fleet
	bundle  *codegen.Bundle
	addrs   map[string]string

	mu   sync.Mutex
	held map[string]chan struct{} // machines whose endpoint does not resolve until the channel closes
}

// hold makes the machine's endpoint unresolvable until release is called: a
// server that needs the machine blocks in its start, which holds a
// Reconfigure open at the point where that server is down.
func (r *reconfigRig) hold(machine string) (release func()) {
	ch := make(chan struct{})
	r.mu.Lock()
	r.held[machine] = ch
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.held, machine)
		r.mu.Unlock()
		close(ch)
	}
}

func startReconfigRig(t *testing.T, spec icelab.FactorySpec) *reconfigRig {
	t.Helper()
	factory := icelab.MustBuild(spec)
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, _, err := StartFleet(bundle.Intermediate.Machines, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })

	rig := &reconfigRig{fleet: fleet, bundle: bundle, addrs: fleet.Addrs(), held: map[string]chan struct{}{}}
	cluster := NewCluster(3, 32)
	// Resolver uses the rig's mutable table so machines added later are
	// found too.
	cluster.MachineEndpoints = func(machine string, _ codegen.DriverConfig) (string, error) {
		rig.mu.Lock()
		held := rig.held[machine]
		rig.mu.Unlock()
		if held != nil {
			<-held
		}
		addr, ok := rig.addrs[machine]
		if !ok {
			return "", errNoEndpoint(machine)
		}
		return addr, nil
	}
	cluster.PollPeriod = 10 * time.Millisecond
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Shutdown)
	rig.cluster = cluster
	return rig
}

type errNoEndpoint string

func (e errNoEndpoint) Error() string { return "no endpoint for machine " + string(e) }

func waitForSeries(t *testing.T, c *Cluster, series string, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		for _, name := range c.Historians() {
			if c.Historian(name).Store.Count(series) >= n {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("series %s never reached %d samples", series, n)
}

func TestReconfigureNoChanges(t *testing.T) {
	rig := startReconfigRig(t, icelab.ICELab())
	report, err := rig.cluster.Reconfigure(rig.bundle, rig.bundle)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Diff.Empty() || len(report.Stopped) != 0 || len(report.Started) != 0 {
		t.Errorf("report = %+v", report)
	}
	if report.Untouched != 18 {
		t.Errorf("untouched = %d, want 18", report.Untouched)
	}
}

func TestReconfigureMachineAdded(t *testing.T) {
	rig := startReconfigRig(t, icelab.ICELab())

	// Evolve the model: a third AGV joins workcell 06.
	grown := icelab.ICELab()
	extra := grown.Machines[len(grown.Machines)-1]
	extra.Name = "rbKairos3"
	extra.IP = "10.197.12.73"
	extra.Port = 4849
	grown.Machines = append(grown.Machines, extra)
	factory := icelab.MustBuild(grown)
	newBundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Start the new machine's emulator before reconciling.
	for _, mc := range newBundle.Intermediate.Machines {
		if mc.Machine == "rbKairos3" {
			m, err := rig.fleet.Start(SpecForMachine(mc), 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			rig.addrs["rbKairos3"] = m.Addr()
		}
	}

	report, err := rig.cluster.Reconfigure(rig.bundle, newBundle)
	if err != nil {
		t.Fatalf("reconfigure: %v (report %+v)", err, report)
	}
	if !rig.cluster.AllRunning() {
		for _, p := range rig.cluster.Pods() {
			t.Logf("pod %s: %s %s", p.Name, p.Phase, p.Error)
		}
		t.Fatal("pods not all running after reconfigure")
	}
	// The broker never restarted (its manifest is unchanged).
	for _, name := range report.Stopped {
		if name == "message-broker" {
			t.Error("broker restarted needlessly")
		}
	}
	// New machine's data flows.
	waitForSeries(t, rig.cluster,
		"factory/ICEProductionLine/workCell06/rbKairos3/values/Battery/batteryLevel", 2, 10*time.Second)
	// Old machines keep flowing too (fresh samples post-reconfigure).
	waitForSeries(t, rig.cluster,
		"factory/ICEProductionLine/workCell02/emco/values/AxesPositions/actualX", 2, 10*time.Second)
}

// TestReconfigureDriverEndpointChange: a machine's driver endpoint changes,
// so its workcell's OPC UA server restarts — and with it exactly the client
// modules that bridge a machine of that server, nothing else. The other
// clients, the historians and the broker keep their pods, and the plant
// behind them keeps delivering while the server is down.
func TestReconfigureDriverEndpointChange(t *testing.T) {
	rig := startReconfigRig(t, icelab.ICELab())

	// The EMCO moves to a new IP; its emulator "moves" too (same address
	// table entry, new modeled endpoint).
	moved := icelab.ICELab()
	for i := range moved.Machines {
		if moved.Machines[i].Name == "emco" {
			moved.Machines[i].IP = "10.197.99.99"
		}
	}
	newBundle, err := codegen.Generate(icelab.MustBuild(moved), codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Who depends on the server that restarts, from the model: the clients
	// with a machine on it. One machine of any other client is the bystander
	// whose samples must keep coming.
	const server = "opcua-server-workcell02"
	wantStopped := map[string]bool{server: true}
	bystander := ""
	for _, cc := range rig.bundle.Intermediate.Clients {
		dependent := false
		for _, m := range cc.Machines {
			dependent = dependent || m.Server == server
		}
		if dependent {
			wantStopped[cc.Name] = true
			continue
		}
		for _, m := range cc.Machines {
			for _, v := range m.Subscriptions {
				if bystander == "" && v.Type == "Double" {
					bystander = v.Topic
				}
			}
		}
	}
	if len(wantStopped) == 1+len(rig.bundle.Intermediate.Clients) || bystander == "" {
		t.Fatalf("every client bridges %s: the ICE Lab grouping no longer exercises the scoped cascade", server)
	}
	count := func() int {
		total := 0
		for _, h := range rig.cluster.Historians() {
			total += rig.cluster.Historian(h).Store.Count(bystander)
		}
		return total
	}
	waitFor(t, 10*time.Second, "bystander samples before the reconfigure", func() bool { return count() > 0 })
	before := map[string]Pod{}
	for _, p := range rig.cluster.Pods() {
		before[p.Name] = p
	}

	// Hold the restarting server's start open (its machine does not resolve)
	// and watch the bystander from inside the transition.
	release := rig.hold("emco")
	type result struct {
		report *ReconfigureReport
		err    error
	}
	done := make(chan result, 1)
	go func() {
		report, err := rig.cluster.Reconfigure(rig.bundle, newBundle)
		done <- result{report, err}
	}()
	waitFor(t, 10*time.Second, "the workcell02 server to go down", func() bool {
		return rig.cluster.Server(server) == nil
	})
	during := count()
	waitFor(t, 10*time.Second, "fresh bystander samples while the server is down", func() bool {
		return count() >= during+3
	})
	select {
	case r := <-done:
		t.Fatalf("reconfigure finished (%+v, %v) while the restarted server's machine was held", r.report, r.err)
	default:
	}
	release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	stopped := map[string]bool{}
	for _, n := range r.report.Stopped {
		stopped[n] = true
	}
	if !reflect.DeepEqual(stopped, wantStopped) {
		t.Errorf("stopped %v, want exactly the server and the clients with a machine on it: %v", r.report.Stopped, wantStopped)
	}
	sort.Strings(r.report.Started)
	if want := sortedKeys(wantStopped); !reflect.DeepEqual(r.report.Started, want) {
		t.Errorf("started %v, want %v", r.report.Started, want)
	}
	if !rig.cluster.AllRunning() {
		t.Fatal("pods not all running")
	}
	for _, p := range rig.cluster.Pods() {
		was := before[p.Name]
		if restarted := wantStopped[strings.TrimSuffix(p.Name, "-0")]; restarted == p.Started.Equal(was.Started) {
			t.Errorf("pod %s: started %v before and %v after, restarted = %v", p.Name, was.Started, p.Started, restarted)
		}
	}
	// Data flows again from the moved machine.
	waitForSeries(t, rig.cluster,
		"factory/ICEProductionLine/workCell02/emco/values/AxesPositions/actualX", 2, 10*time.Second)
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestReconfigurePlanStopsOnlyWhatDepends is the cascade rule as a property
// over every single-machine edit of the ICE Lab — each machine removed,
// cloned into its workcell, moved to the next workcell: what a transition
// stops is the deployments whose manifest changed or went away, plus the
// client modules with a machine on a server among those, and nothing else.
// The expectation is built from file names and the intermediate model, not
// from the decoded objects the plan reads; the plan runs on the records a
// cluster holds after applying the old bundle, without a cluster.
func TestReconfigurePlanStopsOnlyWhatDepends(t *testing.T) {
	base := icelab.ICELab()
	old, err := codegen.Generate(icelab.MustBuild(base), codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	workcells := base.Workcells()
	edit := func(mutate func(spec *icelab.FactorySpec)) icelab.FactorySpec {
		spec := icelab.ICELab()
		mutate(&spec)
		return spec
	}
	edits := map[string]icelab.FactorySpec{}
	for i, m := range base.Machines {
		i, m := i, m
		edits["remove "+m.Name] = edit(func(spec *icelab.FactorySpec) {
			spec.Machines = append(spec.Machines[:i:i], spec.Machines[i+1:]...)
		})
		edits["add a clone of "+m.Name] = edit(func(spec *icelab.FactorySpec) {
			clone := m
			clone.Name, clone.IP = m.Name+"Clone", fmt.Sprintf("10.197.77.%d", i+1)
			spec.Machines = append(spec.Machines, clone)
		})
		edits["move "+m.Name] = edit(func(spec *icelab.FactorySpec) {
			for w, wc := range workcells {
				if wc == m.Workcell {
					spec.Machines[i].Workcell = workcells[(w+1)%len(workcells)]
				}
			}
		})
	}

	deploymentOf := func(manifest string) string { // "manifests/10-opcua-server-x.yaml" -> "opcua-server-x"
		name := strings.TrimSuffix(strings.TrimPrefix(manifest, "manifests/"), ".yaml")
		return name[strings.Index(name, "-")+1:]
	}
	narrower := 0
	for name, spec := range edits {
		bundle, err := codegen.Generate(icelab.MustBuild(spec), codegen.GenOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diff := codegen.DiffBundles(old, bundle)
		want := map[string]bool{}
		for _, f := range append(append([]string(nil), diff.Changed...), diff.Removed...) {
			if strings.HasPrefix(f, "manifests/") && f != "manifests/00-namespace.yaml" {
				want[deploymentOf(f)] = true
			}
		}
		if want["message-broker"] {
			t.Fatalf("%s: the broker's manifest changed", name)
		}
		for _, cc := range old.Intermediate.Clients {
			for _, m := range cc.Machines {
				if want[m.Server] {
					want[cc.Name] = true
				}
			}
		}
		got := map[string]bool{}
		plan, err := plan(recordsOf(t, old), bundleObjects(bundle))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range plan.stop {
			got[p.name()] = true
			if i > 0 && byOrder(plan.stop[i-1], p) < 0 {
				t.Errorf("%s: %s stops before %s", name, plan.stop[i-1].name(), p.name())
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the plan stops %v, want %v", name, sortedKeys(got), sortedKeys(want))
		}
		clients := 0
		for d := range got {
			if strings.HasPrefix(d, "opcua-client-") {
				clients++
			}
		}
		if clients < len(old.Intermediate.Clients) {
			narrower++
		}
		// Whatever stops and still exists starts again, servers before clients.
		started := map[string]bool{}
		for i, p := range plan.start {
			started[p.name()] = true
			if i > 0 && byOrder(plan.start[i-1], p) > 0 {
				t.Errorf("%s: %s starts before %s", name, plan.start[i-1].name(), p.name())
			}
		}
		for _, f := range diff.Removed {
			delete(got, deploymentOf(f))
		}
		for d := range got {
			if !started[d] {
				t.Errorf("%s: %s stops and never starts again", name, d)
			}
		}
	}
	if narrower == 0 {
		t.Error("every edit restarted every client: the property never saw a scoped cascade")
	}
}

// recordsOf is the pod records a cluster holds after applying b, each with
// the dependencies its start records, and no component behind them.
func recordsOf(t testing.TB, b *codegen.Bundle) map[string]*podRecord {
	t.Helper()
	apply, err := plan(nil, bundleObjects(b))
	if err != nil {
		t.Fatal(err)
	}
	pods := map[string]*podRecord{}
	for _, p := range apply.start {
		p.status.Phase = PodRunning
		p.dependOnBrokers(pods)
		if p.status.Component == "opcua-client" {
			var cc codegen.ClientConfig
			if err := p.config("client.json", &cc, &cc.Name); err != nil {
				t.Fatal(err)
			}
			for _, m := range cc.Machines {
				p.deps[m.Server] = true
			}
		}
		pods[p.status.Name] = p
	}
	return pods
}

// agvEdit is the ICE Lab before and after a third AGV joins workcell 06
// (EXPERIMENTS Ablation D), generated through one unit cache as an edit loop
// does, so the two bundles share the objects of every unchanged manifest.
func agvEdit(t testing.TB) (old, grown *codegen.Bundle) {
	t.Helper()
	cache := codegen.NewCache()
	old, err := codegen.GenerateWithCache(icelab.MustBuild(icelab.ICELab()), codegen.GenOptions{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	spec := icelab.ICELab()
	agv := spec.Machines[len(spec.Machines)-1]
	agv.Name, agv.IP, agv.Port = "rbKairos3", "10.197.12.73", 4849
	spec.Machines = append(spec.Machines, agv)
	grown, err = codegen.GenerateWithCache(icelab.MustBuild(spec), codegen.GenOptions{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	return old, grown
}

// TestPlanTable pins the plan of whole transitions: applying the ICE Lab
// onto nothing, the AGV edit (5 of the 18 Deployments restart: the AGV's
// workcell server, the historian whose topic list grew and three of the
// four client modules), the same bundle again, and the plan to nothing.
func TestPlanTable(t *testing.T) {
	old, grown := agvEdit(t)
	kindsOf := func(pods []*podRecord) map[string]int {
		out := map[string]int{}
		for _, p := range pods {
			out[p.status.Component]++
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		running     map[string]*podRecord
		desired     []k8s.Object
		stop, start map[string]int
	}{
		{"apply", nil, bundleObjects(old), map[string]int{},
			map[string]int{"message-broker": 1, "historian": 4, "monitor": 3, "opcua-server": 6, "opcua-client": 4}},
		{"agv edit", recordsOf(t, old), bundleObjects(grown),
			map[string]int{"opcua-server": 1, "historian": 1, "opcua-client": 3},
			map[string]int{"opcua-server": 1, "historian": 1, "opcua-client": 3}},
		{"no change", recordsOf(t, old), bundleObjects(old), map[string]int{}, map[string]int{}},
		{"shutdown", recordsOf(t, old), nil,
			map[string]int{"message-broker": 1, "historian": 4, "monitor": 3, "opcua-server": 6, "opcua-client": 4},
			map[string]int{}},
	} {
		got, err := plan(tc.running, tc.desired)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if k := kindsOf(got.stop); !maps.Equal(k, tc.stop) {
			t.Errorf("%s: stops %v, want %v", tc.name, k, tc.stop)
		}
		if k := kindsOf(got.start); !maps.Equal(k, tc.start) {
			t.Errorf("%s: starts %v, want %v", tc.name, k, tc.start)
		}
	}
}

// TestPlanAllocs guards the plan of the AGV edit: it compares the objects
// the bundles carry and decodes nothing. The plan made 585–599 allocations
// (reflect.DeepEqual walking the objects of the changed manifests, which
// the cache does not share); the budget is that plus 20 %. Decoding one
// client module's client.json in the plan adds about 2 000.
func TestPlanAllocs(t *testing.T) {
	old, grown := agvEdit(t)
	running, desired := recordsOf(t, old), bundleObjects(grown)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := plan(running, desired); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 720
	if allocs > budget {
		t.Errorf("plan of the AGV edit: %.0f allocations, budget %d", allocs, budget)
	}
}

// TestReconfigureUnderPartitionConverges overlaps a model-driven
// reconfiguration with a network partition of the machine whose OPC UA
// server must restart. The transition is allowed to fail or leave pods
// unready while the partition holds, but it must never wedge the cluster:
// once the partition heals, retrying the same reconfigure converges — all
// pods Ready under the new configuration and fresh data flowing from the
// moved machine.
func TestReconfigureUnderPartitionConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("partition reconfigure skipped in -short mode")
	}
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
	bundle, err := codegen.Generate(icelab.MustBuild(spec), codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(31)
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
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	// Evolve the model: speaATE moves to a new IP, forcing its workcell
	// server to restart (and the bridge clients to cascade).
	moved := spec
	moved.Machines = append([]icelab.MachineSpec(nil), spec.Machines...)
	for i := range moved.Machines {
		if moved.Machines[i].Name == "speaATE" {
			moved.Machines[i].IP = "10.197.99.42"
		}
	}
	newBundle, err := codegen.Generate(icelab.MustBuild(moved), codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Partition the machine the restarted server must reach, then attempt
	// the transition under the partition.
	if err := cluster.PartitionComponent("machine:speaATE", true); err != nil {
		t.Fatal(err)
	}
	report, rerr := cluster.Reconfigure(bundle, newBundle)
	if rerr != nil {
		t.Logf("reconfigure under partition failed (will retry after heal): %v", rerr)
	} else {
		t.Logf("reconfigure under partition: stopped=%v started=%v", report.Stopped, report.Started)
	}

	series := "factory/ICEProductionLine/workCell01/speaATE/values/TestStatus/testProgress"
	count := func(s string) int {
		total := 0
		for _, h := range cluster.Historians() {
			if svc := cluster.Historian(h); svc != nil && svc.Store != nil {
				total += svc.Store.Count(s)
			}
		}
		return total
	}

	// While the partition holds, the restarted server cannot reach its
	// machine: speaATE's data flow stays severed (its sample count goes
	// quiet) while the unaffected machines keep producing.
	time.Sleep(150 * time.Millisecond) // let in-flight samples drain
	severedAt := count(series)
	other := "factory/ICEProductionLine/workCell05/warehouse/values/TrayStatus/trayWeight"
	otherBefore := count(other)
	time.Sleep(300 * time.Millisecond)
	if got := count(series); got > severedAt {
		t.Errorf("speaATE samples grew %d -> %d during its partition", severedAt, got)
	}
	waitFor(t, 10*time.Second, "warehouse flows during speaATE partition", func() bool {
		return count(other) > otherBefore
	})

	// Heal, then drive the same transition to convergence. A retry must be
	// idempotent: pods stopped or started by the first attempt are skipped.
	if err := cluster.PartitionComponent("machine:speaATE", false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "reconfigure retry succeeds after heal", func() bool {
		_, err := cluster.Reconfigure(bundle, newBundle)
		return err == nil
	})
	waitFor(t, 30*time.Second, "all pods ready under new configuration", func() bool {
		return cluster.AllReady()
	})

	// Fresh samples from the moved machine prove the new configuration is
	// live end to end.
	before := count(series)
	waitFor(t, 15*time.Second, "fresh speaATE samples after reconfigure", func() bool {
		return count(series) > before
	})
}

func TestRemoveUnknownPod(t *testing.T) {
	cluster := NewCluster(1, 4)
	if err := cluster.Remove("ghost"); err == nil {
		t.Error("want error removing unknown deployment")
	}
}
