// Command factorysim runs the generated configuration end-to-end in the
// simulated environment: it builds the ICE Laboratory model (or a scaled
// variant), generates the configuration bundle, launches one machine
// emulator per modeled machine, applies the manifests to a simulated
// Kubernetes cluster, and then reports the live data flow — pods, OPC UA
// traffic, broker throughput and historian contents — for the requested
// duration. It also demonstrates a SOM production process executing machine
// services across workcells.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/deploy"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/isa95"
	"github.com/smartfactory/sysml2conf/internal/ops"
	"github.com/smartfactory/sysml2conf/internal/resilience"
	"github.com/smartfactory/sysml2conf/internal/som"
)

func main() {
	var (
		scale      = flag.Int("scale", 1, "replicate the ICE Lab n times")
		duration   = flag.Duration("duration", 3*time.Second, "how long to let data flow")
		process    = flag.Bool("process", true, "execute a demo SOM production process")
		browse     = flag.String("browse", "", "print the address space of this OPC UA server (e.g. opcua-server-workcell02)")
		snapDir    = flag.String("snapshot-dir", "", "write historian snapshots to this directory before exiting")
		chaos      = flag.Bool("chaos", false, "inject seeded connection faults (drops, partitions) during the run")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the deterministic fault injector")
		audit      = flag.Bool("audit", false, "publish numbered samples through the acked pipeline and verify exactly-once ingestion (exit 1 on loss or duplication)")
		auditCount = flag.Int("audit-count", 1000, "number of audit samples to publish with -audit")
		dataDir    = flag.String("data-dir", "", "durable historian state directory (WAL + snapshots); historians recover from it across restarts")
		shards     = flag.Int("shards", 1, "federate the message broker across n nodes (workcells placed by consistent hash; with -audit the samples enter through a non-owner shard and cross a bridge)")
		queryAddr  = flag.String("query-addr", "", "serve the historian HTTP query API (/series, /range, /aggregate) on this address, e.g. 127.0.0.1:9090 or :0 for an ephemeral port")
		campaign   = flag.Int("campaign", 0, "run a production campaign of n parts through the operations planner/executor (with -chaos it rides out the injected faults via replanning)")
		campPart   = flag.String("campaign-part", "flange", "part name produced by -campaign; the recipe is synthesized from the modeled machine capabilities")
	)
	flag.Parse()

	start := time.Now()
	factory, model, err := icelab.Build(icelab.Scaled(*scale))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model built and extracted in %v: %s\n", time.Since(start).Round(time.Millisecond), factory)

	genStart := time.Now()
	bundle, err := codegen.Generate(factory, codegen.GenOptions{
		Options: codegen.Options{Shards: *shards},
	})
	if err != nil {
		fatal(err)
	}
	s := bundle.Summary
	fmt.Printf("configuration generated in %v: %d servers, %d clients, %.1f KB in %d files\n",
		time.Since(genStart).Round(time.Millisecond), s.Servers, s.Clients,
		float64(s.ConfigBytes)/1024, s.Files)
	if pl := bundle.Intermediate.Placement; pl != nil {
		fmt.Printf("federation: %d broker shards over %d placed workcells\n", pl.Shards, len(pl.Workcells))
	}

	var inj *faultinject.Injector
	var wrap func(name string, ln net.Listener) net.Listener
	if *chaos {
		inj = faultinject.New(*chaosSeed)
		wrap = func(name string, ln net.Listener) net.Listener {
			return inj.Wrap("machine:"+name, ln)
		}
	}
	fleet, resolver, err := deploy.StartFleetWrapped(bundle.Intermediate.Machines, 50*time.Millisecond, wrap)
	if err != nil {
		fatal(err)
	}
	defer fleet.Close()
	fmt.Printf("machine emulators: %d started\n", len(fleet.Names()))

	cluster := deploy.NewCluster(clusterNodes, podsPerNode(bundle))
	cluster.MachineEndpoints = resolver
	cluster.PollPeriod = 50 * time.Millisecond
	cluster.FaultInjector = inj
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fatal(err)
		}
		cluster.DataDir = *dataDir
		fmt.Printf("durable historians: state under %s\n", *dataDir)
	}
	deployStart := time.Now()
	if err := cluster.ApplyBundle(bundle); err != nil {
		fatal(err)
	}
	defer cluster.Shutdown()
	fmt.Printf("deployed in %v; pods:\n", time.Since(deployStart).Round(time.Millisecond))
	for _, p := range cluster.Pods() {
		fmt.Printf("  %-28s %-14s %-8s %s\n", p.Name, p.Component, p.Phase, p.Node)
	}
	if !cluster.AllRunning() {
		fatal(fmt.Errorf("not all pods are running"))
	}

	if *queryAddr != "" {
		bound, err := cluster.StartQueryServer(*queryAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query API: http://%s  (try /series, /aggregate?series=<name>&window=10s, /stats)\n", bound)
	}

	// Launch the production campaign concurrently with the data flow (and
	// any chaos), so replanning is exercised against whatever the run
	// throws at it. The plan-vs-actual audit needs the query API; start an
	// ephemeral one when the user did not ask for an address.
	type campaignResult struct {
		rep *ops.Report
		err error
	}
	var campaignEx *ops.Executor
	var campaignDone chan campaignResult
	if *campaign > 0 {
		if cluster.QueryAddr() == "" {
			bound, err := cluster.StartQueryServer("127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("query API: http://%s (auto-started for the campaign audit)\n", bound)
		}
		hier, err := isa95.Extract(model)
		if err != nil {
			fatal(err)
		}
		inv := ops.InventoryFromIntermediate(bundle.Intermediate)
		recipe, err := ops.BuildRecipe(inv, *campPart, 4)
		if err != nil {
			fatal(err)
		}
		ex, plan, err := cluster.NewCampaign(bundle.Intermediate, hier,
			ops.Goal{Part: *campPart, Count: *campaign}, recipe, ops.ExecOptions{})
		if err != nil {
			fatal(err)
		}
		var opNames []string
		for _, op := range recipe.Operations {
			opNames = append(opNames, op.Capability)
		}
		fmt.Printf("campaign %s: %d parts via %s (%d steps)\n",
			plan.Campaign, plan.Parts, strings.Join(opNames, " -> "), len(plan.Steps))
		campaignEx = ex
		campaignDone = make(chan campaignResult, 1)
		go func() {
			rep, err := ex.Run()
			campaignDone <- campaignResult{rep, err}
		}()
	}

	// A SIGINT drains the cluster in dependency order instead of dying
	// mid-flight.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	var chaosStop chan struct{}
	var chaosWG sync.WaitGroup
	if *chaos {
		fmt.Printf("chaos: enabled, seed %d\n", *chaosSeed)
		chaosStop = make(chan struct{})
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			runChaos(cluster, inj, bundle, *chaosSeed, chaosStop)
		}()
	}

	var auditTopic string
	var auditDone chan error
	if *audit {
		auditTopic, auditDone = startAudit(cluster, bundle, *auditCount)
		fmt.Printf("audit: publishing %d numbered samples to %s\n", *auditCount, auditTopic)
	}

	fmt.Printf("letting data flow for %v...\n", *duration)
	interrupted := false
	select {
	case <-time.After(*duration):
	case sig := <-sigCh:
		fmt.Printf("\nreceived %v, draining cluster...\n", sig)
		interrupted = true
	}

	if *chaos {
		close(chaosStop)
		chaosWG.Wait()
		inj.ClearAll()
		if !interrupted {
			waitConverged(cluster, 30*time.Second)
			reportChaos(cluster, inj)
		}
	}

	if interrupted {
		if campaignEx != nil {
			campaignEx.Halt()
			<-campaignDone
		}
		cluster.Shutdown()
		fleet.Close()
		fmt.Println("drained cleanly")
		return
	}

	if campaignEx != nil {
		var cr campaignResult
		select {
		case cr = <-campaignDone:
		case <-time.After(5 * time.Minute):
			campaignEx.Halt()
			cr = <-campaignDone
		}
		if cr.err != nil {
			fmt.Printf("campaign: WARNING: %v\n", cr.err)
		}
		if !reportCampaign(cluster, bundle, campaignEx, cr.rep) {
			os.Exit(1)
		}
	}

	if *audit {
		if err := <-auditDone; err != nil {
			fatal(fmt.Errorf("audit publisher: %w", err))
		}
		if !verifyAudit(cluster, bundle, auditTopic, *auditCount) {
			os.Exit(1)
		}
	}

	st := cluster.BrokerStats()
	fmt.Printf("broker: %d published, %d delivered, %d dropped, %d subscriptions\n",
		st.Published, st.Delivered, st.Dropped, st.Subscriptions)
	for _, ss := range cluster.BrokerShardStats() {
		fmt.Printf("  shard %d: %d published, %d delivered, %d subscriptions; forwarded=%d fwdWindow=%d/%d/%d bridgedIn=%d bridgeDups=%d bridgeInFlight=%d reconnects=%d refused=%d\n",
			ss.Shard, ss.Published, ss.Delivered, ss.Subscriptions,
			ss.Forwarded, ss.ForwardInFlight, ss.ForwardStalls, ss.ForwardReplayed,
			ss.BridgedIn, ss.BridgeDups, ss.BridgeInFlight, ss.Reconnects, ss.Refused)
	}

	totalSeries, totalPoints := 0, uint64(0)
	for _, name := range cluster.Historians() {
		h := cluster.Historian(name)
		series := h.Store.Series()
		totalSeries += len(series)
		totalPoints += h.Store.TotalAppended()
		fmt.Printf("  %s: %d series, %d points\n", name, len(series), h.Store.TotalAppended())
	}
	fmt.Printf("historians: %d series total, %d points ingested\n", totalSeries, totalPoints)
	if qs := cluster.QueryServer(); qs != nil {
		hits, misses := qs.CacheStats()
		fmt.Printf("query API: served at http://%s, window cache %d hits / %d misses\n", cluster.QueryAddr(), hits, misses)
	}

	if *browse != "" {
		browseServer(cluster, *browse)
	}

	if *process {
		runProcess(cluster, bundle)
	}

	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			fatal(err)
		}
		for _, name := range cluster.Historians() {
			path := filepath.Join(*snapDir, name+".json")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := cluster.Historian(name).Store.WriteSnapshot(f); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
			fmt.Printf("snapshot written: %s\n", path)
		}
	}
}

// clusterNodes is the node count of the simulated cluster.
const clusterNodes = 3

// podsPerNode sizes the nodes to the bundle: together they hold every
// Deployment, and each holds at least 32 pods.
func podsPerNode(b *codegen.Bundle) int {
	deployments := 0
	for name := range b.Manifests {
		for _, o := range b.Objects(name) {
			if o.Kind() == "Deployment" {
				deployments++
			}
		}
	}
	return max(32, (deployments+clusterNodes-1)/clusterNodes)
}

// browseServer prints the address space of one deployed OPC UA server,
// grouped by node class.
func browseServer(cluster *deploy.Cluster, name string) {
	srv := cluster.Server(name)
	if srv == nil {
		fatal(fmt.Errorf("no such OPC UA server %q", name))
	}
	nodes := srv.Space.AllNodes()
	fmt.Printf("\naddress space of %s (%d nodes):\n", name, len(nodes))
	shown := 0
	for _, n := range nodes {
		if shown >= 40 {
			fmt.Printf("  ... and %d more nodes\n", len(nodes)-shown)
			break
		}
		fmt.Printf("  %-10s %s\n", n.Class, n.ID)
		shown++
	}
}

// runProcess executes a demo production process: check readiness across the
// line, start the mill, move the cobot, run quality control.
func runProcess(cluster *deploy.Cluster, bundle *codegen.Bundle) {
	reg := som.NewRegistry(bundle.Intermediate)
	orch, err := som.NewOrchestrator(cluster.BrokerAddr(), reg)
	if err != nil {
		fatal(err)
	}
	defer orch.Close()

	var machines []string
	machines = append(machines, reg.Machines()...)
	sort.Strings(machines)
	fmt.Printf("SOM registry: %d machines, %d services\n", len(machines), reg.Count())

	proc := som.Process{
		Name: "mill-and-inspect",
		Steps: []som.Step{
			{Machine: "emco", Service: "is_ready"},
			{Machine: "ur5", Service: "move_to_pose", Args: []any{0.4, 0.1, 0.3}},
			{Machine: "emco", Service: "start_program", Args: []any{"programs/demo.nc"}},
			{Machine: "emco", Service: "stop_program"},
			{Machine: "qualityPC", Service: "start_inspection", Args: []any{"recipe-a"}},
			{Machine: "qualityPC", Service: "get_result"},
		},
	}
	result, err := orch.Execute(proc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("process %q finished in %v:\n", result.Process, result.Elapsed.Round(time.Millisecond))
	for _, sr := range result.Steps {
		fmt.Printf("  %-28s ok=%v results=%v\n", sr.Step.Machine+"."+sr.Step.Service, sr.Reply.OK, sr.Reply.Results)
	}
}

// reportCampaign prints the campaign outcome and reconciles the ledger
// against the historian through the query API: every completed step must
// appear exactly once. A shortfall (parts abandoned because a capability
// ran out of machines) is a graceful outcome and is reported as such; books
// that do not balance fail the run.
func reportCampaign(cluster *deploy.Cluster, bundle *codegen.Bundle, ex *ops.Executor, rep *ops.Report) bool {
	if rep == nil {
		fmt.Println("campaign: FAIL: no report")
		return false
	}
	fmt.Printf("campaign %s: %d/%d parts completed in %v (%d failed, halted=%v)\n",
		rep.Campaign, rep.Completed, rep.Parts, rep.Elapsed.Round(time.Millisecond), rep.Failed, rep.Halted)
	fmt.Printf("  steps: %d completed (%d restored), %d dispatched, %d rebound, %d failed, %d cancelled\n",
		rep.StepsCompleted, rep.StepsRestored, rep.StepsDispatched, rep.StepsRebound, rep.StepsFailed, rep.StepsCancelled)
	var machines []string
	for name := range rep.PerMachine {
		machines = append(machines, name)
	}
	sort.Strings(machines)
	for _, name := range machines {
		fmt.Printf("  %-20s %d steps\n", name, rep.PerMachine[name])
	}
	if len(rep.MachinesLost) > 0 {
		fmt.Printf("  machines lost during the run: %s\n", strings.Join(rep.MachinesLost, ", "))
	}
	for _, sf := range rep.Shortfall {
		fmt.Printf("  shortfall: part %d at %s: no machine offers %q (%s)\n",
			sf.Part, sf.Step, sf.Capability, sf.Reason)
	}

	audit, err := ops.AuditCampaign(cluster.QueryAddr(), ex.Ledger(), ops.StoreMap(bundle.Intermediate), 30*time.Second)
	if err != nil {
		fmt.Printf("campaign audit: FAIL: %v\n", err)
		return false
	}
	if !audit.OK {
		fmt.Printf("campaign audit: FAIL: plan-vs-actual books do not balance:\n")
		for _, m := range audit.Mismatches {
			fmt.Printf("  %s\n", m)
		}
		return false
	}
	fmt.Printf("campaign audit: PASS: %d ledger completions reconciled against the historian exactly once\n", audit.Ledger)
	return true
}

// startAudit publishes count numbered samples through the acked pipeline to
// a topic under the first historian's filter. Each sample is submitted once
// to a broker.Outbox, as session "audit-publisher" with seq i: the outbox
// redials after a connection loss (a chaos partition severs it) and
// re-sends what the lost connection left unacknowledged, and the broker
// dedups the re-sends, so every sample is handed to the broker exactly once
// no matter how rough the run is. done reports the outbox's Flush.
//
// On a federated plant the samples deliberately enter through a shard that
// does NOT own the audit workcell: every sample crosses the federation —
// forwarded from the ingress node to the owner shard, where the group's
// historian ingests it — so the audit verdict covers the cross-shard
// forwarding path, not just a single broker.
func startAudit(cluster *deploy.Cluster, bundle *codegen.Bundle, count int) (string, chan error) {
	sc := bundle.Intermediate.Storage[0]
	topic := strings.TrimSuffix(sc.Topics[0], "#") + "audit/counter"
	ingress := 0
	if pl := bundle.Intermediate.Placement; pl != nil {
		ingress = (sc.Shard + 1) % pl.Shards
		fmt.Printf("audit: ingress shard %d, owner shard %d\n", ingress, sc.Shard)
	}
	ob := broker.NewOutbox("audit", func() (*broker.Client, error) {
		addr, err := cluster.BrokerShardAddr(ingress)
		if err != nil {
			return nil, err
		}
		return broker.DialClient(addr)
	}, resilience.Backoff{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= count; i++ {
			ob.Submit(topic, []byte(fmt.Sprintf(`{"n":%d}`, i)), false, "audit-publisher", uint64(i),
				func(bool, error) {}) // Flush reports a failed sample
			time.Sleep(time.Millisecond)
		}
		err := ob.Flush(5 * time.Minute)
		ob.Close()
		done <- err
	}()
	return topic, done
}

// verifyAudit waits for the audit series to be fully ingested by the owning
// historian, then checks every sequence number appears exactly once.
func verifyAudit(cluster *deploy.Cluster, bundle *codegen.Bundle, topic string, count int) bool {
	name := bundle.Intermediate.Storage[0].Name
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if h := cluster.Historian(name); h != nil && h.Store != nil && h.Store.Count(topic) >= count {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	h := cluster.Historian(name)
	if h == nil || h.Store == nil {
		fmt.Printf("audit: FAIL: historian %s not running\n", name)
		return false
	}
	pts := h.Store.Range(topic, time.Time{}, time.Now().Add(time.Hour))
	seen := make(map[int]int, count)
	for _, p := range pts {
		var v struct {
			N int `json:"n"`
		}
		if err := json.Unmarshal(p.Payload, &v); err != nil {
			fmt.Printf("audit: FAIL: undecodable payload %q: %v\n", p.Payload, err)
			return false
		}
		seen[v.N]++
	}
	missing, dup := 0, 0
	for i := 1; i <= count; i++ {
		switch {
		case seen[i] == 0:
			missing++
		case seen[i] > 1:
			dup++
		}
	}
	st := cluster.BrokerStats()
	if missing > 0 || dup > 0 || len(pts) != count || st.Refused != 0 {
		fmt.Printf("audit: FAIL: %d stored, %d missing, %d duplicated (want %d exactly once); broker redelivered=%d refused=%d\n",
			len(pts), missing, dup, count, st.Redelivered, st.Refused)
		return false
	}
	fmt.Printf("audit: PASS: %d samples ingested exactly once (broker redelivered=%d refused=%d)\n",
		count, st.Redelivered, st.Refused)
	return true
}

// runChaos drives a seeded fault schedule until stop closes: every few
// hundred milliseconds it partitions a random component (machine, OPC UA
// server or broker) for a short interval, then heals it. The schedule is a
// pure function of the seed.
func runChaos(cluster *deploy.Cluster, inj *faultinject.Injector, bundle *codegen.Bundle, seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed))
	var targets []string
	if pl := bundle.Intermediate.Placement; pl != nil {
		// Federated broker tier: each node and each bridge/uplink edge is
		// its own partition target.
		for i := 0; i < pl.Shards; i++ {
			targets = append(targets, fmt.Sprintf("broker-s%d", i))
			for j := 0; j < pl.Shards; j++ {
				if i != j {
					targets = append(targets, fmt.Sprintf("bridge:s%d-s%d", i, j))
				}
			}
		}
	} else {
		targets = append(targets, "broker")
	}
	for _, s := range bundle.Intermediate.Servers {
		targets = append(targets, "opcua:"+s.Name)
	}
	for _, m := range bundle.Intermediate.Machines {
		targets = append(targets, "machine:"+m.Machine)
	}
	sleep := func(d time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	for {
		if !sleep(time.Duration(200+rng.Intn(400)) * time.Millisecond) {
			return
		}
		target := targets[rng.Intn(len(targets))]
		outage := time.Duration(100+rng.Intn(300)) * time.Millisecond
		fmt.Printf("chaos: partitioning %s for %v\n", target, outage.Round(time.Millisecond))
		_ = cluster.PartitionComponent(target, true)
		if !sleep(outage) {
			_ = cluster.PartitionComponent(target, false)
			return
		}
		_ = cluster.PartitionComponent(target, false)
	}
}

// waitConverged polls until every pod is Running and Ready again.
func waitConverged(cluster *deploy.Cluster, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cluster.AllReady() {
			fmt.Println("chaos: cluster converged, all pods Ready")
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("chaos: WARNING: cluster did not converge before the deadline")
}

// reportChaos prints the supervision outcome of a chaos run.
func reportChaos(cluster *deploy.Cluster, inj *faultinject.Injector) {
	fmt.Println("chaos: pod supervision summary:")
	for _, p := range cluster.Pods() {
		fmt.Printf("  %-28s phase=%-9s ready=%-5v restarts=%d crashloop=%v\n",
			p.Name, p.Phase, p.Ready, p.Restarts, p.CrashLoop)
	}
	restarts, unready := 0, 0
	for _, e := range cluster.Events() {
		switch e.Type {
		case deploy.EventRestarted:
			restarts++
		case deploy.EventNotReady:
			unready++
		}
	}
	fmt.Printf("chaos: %d supervised restarts, %d not-ready transitions\n", restarts, unready)
	st := cluster.BrokerStats()
	fmt.Printf("chaos: broker published=%d delivered=%d dropped=%d\n", st.Published, st.Delivered, st.Dropped)
	names := inj.Names()
	stats := inj.Stats()
	for _, n := range names {
		s := stats[n]
		fmt.Printf("  injector %-28s accepts=%d refusals=%d drops=%d\n",
			n, s.Accepts, s.Refusals, s.Drops)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "factorysim:", err)
	os.Exit(1)
}
