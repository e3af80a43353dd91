package deploy

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/stack"
)

// chaosBundle generates the configuration for a three-machine slice of the
// ICE Lab: small machines only, so polls and restarts are fast.
func chaosBundle(t *testing.T) *codegen.Bundle {
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
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

// chaosSchedule derives the fault schedule for a soak run: a pure function
// of the seed, so two runs with the same seed partition the same components
// in the same order for the same intervals. One broker outage is always
// included so supervised restarts are exercised.
type chaosEvent struct {
	target string
	outage time.Duration
}

func chaosSchedule(bundle *codegen.Bundle, seed int64, rounds int) []chaosEvent {
	rng := rand.New(rand.NewSource(seed))
	var targets []string
	for _, s := range bundle.Intermediate.Servers {
		targets = append(targets, "opcua:"+s.Name)
	}
	for _, m := range bundle.Intermediate.Machines {
		targets = append(targets, "machine:"+m.Machine)
	}
	events := make([]chaosEvent, rounds)
	for i := range events {
		events[i] = chaosEvent{
			target: targets[rng.Intn(len(targets))],
			outage: time.Duration(40+rng.Intn(80)) * time.Millisecond,
		}
	}
	// Guarantee one broker partition mid-soak: it is the one fault class
	// that forces supervised restarts of every dependent pod.
	events[rounds/2].target = "broker"
	return events
}

// runChaosSoak deploys the plant with a seeded fault injector, plays the
// schedule, heals everything and waits for convergence. It returns the
// schedule it executed (for determinism checks) and fails the test if the
// plant does not recover completely.
func runChaosSoak(t *testing.T, bundle *codegen.Bundle, seed int64) []string {
	t.Helper()
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
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var executed []string
	for _, ev := range chaosSchedule(bundle, seed, 8) {
		executed = append(executed, fmt.Sprintf("%s/%v", ev.target, ev.outage))
		if err := cluster.PartitionComponent(ev.target, true); err != nil {
			t.Fatalf("partition %s: %v", ev.target, err)
		}
		time.Sleep(ev.outage)
		if err := cluster.PartitionComponent(ev.target, false); err != nil {
			t.Fatalf("heal %s: %v", ev.target, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	inj.ClearAll()

	// Convergence: every pod Running and Ready again.
	waitFor(t, 30*time.Second, "convergence after chaos soak", func() bool {
		return cluster.AllReady()
	})

	// The forced broker outage must have driven supervised restarts, and
	// the counters must be reported on pod status.
	restarts := 0
	for _, p := range cluster.Pods() {
		restarts += p.Restarts
		if p.CrashLoop {
			t.Errorf("%s stuck in CrashLoopBackOff after heal", p.Name)
		}
	}
	if restarts == 0 {
		t.Error("no supervised restarts recorded despite broker outage")
	}

	// No stale data flow: fresh samples arrive for every machine.
	series := map[string]string{
		"speaATE":   "factory/ICEProductionLine/workCell01/speaATE/values/TestStatus/testProgress",
		"warehouse": "factory/ICEProductionLine/workCell05/warehouse/values/TrayStatus/trayWeight",
		"rbKairos1": "factory/ICEProductionLine/workCell06/rbKairos1/values/Battery/batteryLevel",
	}
	for name, s := range series {
		count := func() int {
			total := 0
			for _, h := range cluster.Historians() {
				if svc := cluster.Historian(h); svc != nil && svc.Store != nil {
					total += svc.Store.Count(s)
				}
			}
			return total
		}
		before := count()
		waitFor(t, 15*time.Second, name+" fresh samples after chaos", func() bool {
			return count() > before
		})
	}

	// The broker's loss accounting must be live and consistent: data flowed
	// after the heal, so the (possibly restarted) broker has published and
	// delivered messages, and drops can never exceed deliveries.
	st := cluster.BrokerStats()
	published, delivered, dropped := st.Published, st.Delivered, st.Dropped
	if published == 0 || delivered == 0 {
		t.Errorf("broker stats flat after chaos: published=%d delivered=%d", published, delivered)
	}
	if dropped > delivered {
		t.Errorf("broker dropped %d > delivered %d", dropped, delivered)
	}
	// Acked sessions are the loss-bounded tier: redelivery is fine (the
	// consumers dedup) but a refused enqueue would be a dropped acked
	// message, and the chaos soak must never provoke one.
	if refused := st.Refused; refused != 0 {
		t.Errorf("broker refused %d acked messages during chaos soak, want 0", refused)
	}

	// Services answer on every machine.
	bc, err := broker.DialClient(cluster.BrokerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	for _, mc := range bundle.Intermediate.Machines {
		for _, m := range mc.Methods {
			if m.Name != "is_ready" {
				continue
			}
			reply, err := stack.CallService(bc, m, nil, 5*time.Second)
			if err != nil || !reply.OK {
				t.Errorf("%s.is_ready after chaos: err=%v reply=%+v", mc.Machine, err, reply)
			}
		}
	}
	return executed
}

// TestChaosSeededSoakConverges plays a seeded declarative fault schedule —
// partitions of machines, OPC UA servers and the broker — against the full
// supervised stack, twice with the same seed. Both runs must execute the
// identical schedule and both must converge: all pods Ready, restart
// counters reported, data flowing, services answering.
func TestChaosSeededSoakConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	bundle := chaosBundle(t)
	const seed = 11
	first := runChaosSoak(t, bundle, seed)
	second := runChaosSoak(t, bundle, seed)
	if len(first) != len(second) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("schedule diverged at round %d: %q vs %q", i, first[i], second[i])
		}
	}
}
