package deploy

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/isa95"
	"github.com/smartfactory/sysml2conf/internal/ops"
)

// campaignBundle generates the configuration for the campaign slice of the
// ICE Lab: the warehouse (sole provider of tray staging/put-away) plus both
// AGVs (redundant providers of pick), so the executor has something to
// rebind to when one AGV dies and a capability that degrades to zero when
// the warehouse does. It also extracts the ISA-95 hierarchy from the same
// model so the campaign planner can cross-check its inventory.
func campaignBundle(t *testing.T, retention int) (*codegen.Bundle, *isa95.Node) {
	t.Helper()
	full := icelab.ICELab()
	spec := icelab.FactorySpec{
		TopologyName: full.TopologyName, Enterprise: full.Enterprise,
		Site: full.Site, Area: full.Area, Line: full.Line,
	}
	for _, m := range full.Machines {
		switch m.Name {
		case "warehouse", "rbKairos1", "rbKairos2":
			spec.Machines = append(spec.Machines, m)
		}
	}
	factory, model, err := icelab.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := isa95.Extract(model)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := codegen.Generate(factory, codegen.GenOptions{
		Options: codegen.Options{HistorianRetention: retention},
	})
	if err != nil {
		t.Fatal(err)
	}
	return bundle, hier
}

// trayRecipe is the campaign recipe: stage a tray from the warehouse, have
// an AGV pick from it, put the tray away. call_tray and store_tray exist
// only on the warehouse; pick exists on both AGVs.
func trayRecipe() ops.Recipe {
	return ops.Recipe{Part: "flange", Operations: []ops.Operation{
		{Name: "stage_tray", Capability: "call_tray"},
		{Name: "pick", Capability: "pick"},
		{Name: "put_away", Capability: "store_tray"},
	}}
}

// TestCampaignChaosAuditExactCompletion is the end-to-end robustness proof
// for the operations tier: a 200-part campaign must complete exactly 200
// parts — ledger and historian in perfect agreement, zero duplicated steps
// — despite (1) one of the two pick-capable AGVs dying mid-campaign
// (forcing failure-aware replanning onto the survivor), (2) a broker
// partition severing the ledger publisher mid-stream, and (3) a model
// reconfiguration restarting the historian tier under load. A final phase
// kills the only machine offering a required capability and verifies the
// executor degrades gracefully to an explicit shortfall report instead of
// hanging or miscounting.
func TestCampaignChaosAuditExactCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign chaos audit skipped in -short mode")
	}
	bundle, hier := campaignBundle(t, 0) // default retention
	bundle2, _ := campaignBundle(t, 12000)

	const seed = 41
	inj := faultinject.New(seed)
	fleet, resolver, err := StartFleetWrapped(bundle.Intermediate.Machines, 10*time.Millisecond,
		func(name string, ln net.Listener) net.Listener {
			return inj.Wrap("machine:"+name, ln)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	// Pace the machines so the campaign spans real time: chaos must land
	// mid-flight, not after a wire-speed campaign already finished.
	for _, name := range []string{"warehouse", "rbKairos1", "rbKairos2"} {
		fleet.Machine(name).SetCallDelay(2 * time.Millisecond)
	}

	cluster := NewCluster(2, 32)
	cluster.MachineEndpoints = resolver
	cluster.FaultInjector = inj
	cluster.DataDir = t.TempDir() // durable historians: reconfigure restarts must not lose data
	fastProbes(cluster)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	if _, err := cluster.StartQueryServer("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	const parts = 200
	ex, plan, err := cluster.NewCampaign(bundle.Intermediate, hier,
		ops.Goal{Campaign: "flange-chaos", Part: "flange", Count: parts},
		trayRecipe(), ops.ExecOptions{
			Concurrency: 8,
			ProbePeriod: 50 * time.Millisecond,
			// Chaos pauses (machine probe windows, broker outage) must not
			// abandon parts; only genuine capability exhaustion may.
			NoCapacityGrace: 10 * time.Second,
			FlushTimeout:    30 * time.Second,
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Steps); got != parts*3 {
		t.Fatalf("plan has %d steps, want %d", got, parts*3)
	}

	type result struct {
		rep *ops.Report
		err error
	}
	runDone := make(chan result, 1)
	go func() {
		rep, err := ex.Run()
		runDone <- result{rep, err}
	}()
	led := ex.Ledger()

	// Chaos 1: kill one AGV once the campaign is well in flight. Steps
	// bound to it — including in-flight dispatches — must rebind to the
	// surviving AGV.
	waitFor(t, 30*time.Second, "campaign progress before AGV kill", func() bool {
		return led.Len() >= 60
	})
	if err := fleet.Machine("rbKairos1").Close(); err != nil {
		t.Fatal(err)
	}

	// Chaos 2: partition the broker mid-stream. Dispatch keeps running;
	// the ledger publisher rides it out (redial + dedup-safe replay).
	waitFor(t, 30*time.Second, "campaign progress before broker partition", func() bool {
		return led.Len() >= 200
	})
	if err := cluster.PartitionComponent("broker", true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if err := cluster.PartitionComponent("broker", false); err != nil {
		t.Fatal(err)
	}

	// Chaos 3: reconfigure under load. The retention bump rewrites the
	// storage manifests, so every historian restarts and must recover its
	// campaign series durably (snapshot + WAL) and resume its acked
	// subscription without loss or duplication.
	waitFor(t, 30*time.Second, "campaign progress before reconfigure", func() bool {
		return led.Len() >= 320
	})
	recReport, err := cluster.Reconfigure(bundle, bundle2)
	if err != nil {
		t.Fatalf("reconfigure under load: %v (report %+v)", err, recReport)
	}
	historianRestarted := false
	for _, name := range recReport.Stopped {
		if strings.HasPrefix(name, "historian") {
			historianRestarted = true
		}
	}
	if !historianRestarted {
		t.Fatalf("reconfigure stopped %v, want a historian restart", recReport.Stopped)
	}

	var res result
	select {
	case res = <-runDone:
	case <-time.After(120 * time.Second):
		ex.Halt()
		t.Fatal("campaign did not finish within 120s")
	}
	if res.err != nil {
		t.Fatalf("campaign run: %v", res.err)
	}
	rep := res.rep

	// Exactly N parts, no abandoned parts, and the loss was replanned
	// around rather than absorbed as failures.
	if rep.Completed != parts || rep.Failed != 0 {
		t.Fatalf("campaign completed %d / failed %d of %d parts (shortfall %v)",
			rep.Completed, rep.Failed, parts, rep.Shortfall)
	}
	if rep.StepsRebound == 0 {
		t.Error("no steps rebound: the AGV kill was not replanned around")
	}
	if len(rep.MachinesLost) != 1 || rep.MachinesLost[0] != "rbKairos1" {
		t.Errorf("machines lost = %v, want [rbKairos1]", rep.MachinesLost)
	}
	if led.Len() != parts*3 {
		t.Errorf("ledger has %d completions, want %d", led.Len(), parts*3)
	}
	if rep.PerMachine["rbKairos2"] == 0 {
		t.Error("surviving AGV executed no steps")
	}

	// Plan vs actual: the historian must hold every ledger completion
	// exactly once — /aggregate counts and /range step IDs both match.
	audit, err := ops.AuditCampaign(cluster.QueryAddr(), led, ops.StoreMap(bundle.Intermediate), 30*time.Second)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !audit.OK {
		t.Fatalf("plan-vs-actual audit failed: %v", audit.Mismatches)
	}
	if audit.Ledger != parts*3 || audit.Historian != parts*3 {
		t.Errorf("audit reconciled ledger=%d historian=%d, want %d each",
			audit.Ledger, audit.Historian, parts*3)
	}
	if refused := cluster.BrokerStats().Refused; refused != 0 {
		t.Errorf("broker refused %d acked messages, want 0", refused)
	}

	// Shortfall phase: kill the warehouse — the only provider of call_tray
	// — and run a second campaign. Every part must be abandoned with an
	// explicit shortfall naming the exhausted capability, and Run must
	// return promptly instead of waiting forever for capacity.
	if err := fleet.Machine("warehouse").Close(); err != nil {
		t.Fatal(err)
	}
	const shortParts = 12
	ex2, _, err := cluster.NewCampaign(bundle2.Intermediate, hier,
		ops.Goal{Campaign: "flange-shortfall", Part: "flange", Count: shortParts},
		trayRecipe(), ops.ExecOptions{
			Concurrency:     4,
			DialTimeout:     200 * time.Millisecond,
			ProbePeriod:     50 * time.Millisecond,
			NoCapacityGrace: 400 * time.Millisecond,
			FlushTimeout:    10 * time.Second,
		})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep2, err := ex2.Run()
	if err != nil {
		t.Fatalf("shortfall campaign run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("shortfall campaign took %v, want a prompt graceful degradation", elapsed)
	}
	if rep2.Completed != 0 || rep2.Failed != shortParts {
		t.Errorf("shortfall campaign completed %d / failed %d, want 0 / %d",
			rep2.Completed, rep2.Failed, shortParts)
	}
	if len(rep2.Shortfall) != shortParts {
		t.Fatalf("shortfall report has %d entries, want %d", len(rep2.Shortfall), shortParts)
	}
	for _, sf := range rep2.Shortfall {
		if sf.Capability != "call_tray" {
			t.Errorf("part %d shortfall names capability %q, want call_tray (reason %q)",
				sf.Part, sf.Capability, sf.Reason)
		}
	}
}
