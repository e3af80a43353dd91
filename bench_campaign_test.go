// Operations-tier throughput benchmark: the campaign executor's cost per
// step over a simulated machine fleet, including the ledger publish every
// completion rides through the broker tier. Where bench_federated_test.go
// measures the raw message path, this measures the full operations loop —
// pop a ready step, call the machine's service over its wire protocol,
// record the completion, and flush the acked (session, seq) ledger event —
// with the broker tier swept from a single node to a federated layout so
// the ledger stream crosses forward uplinks exactly as a sharded plant's
// would. Run() does not return until every ledger event is acknowledged,
// so ns/op is the end-to-end steps/s the executor sustains, not just the
// dispatch rate. An ungated microscope, run by hand with
// `go test -run '^$' -bench BenchmarkCampaignThroughput .`.
package sysml2conf

import (
	"fmt"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/ops"
)

// campaignMachines is the fleet size: two machines per workcell across
// eight workcells, all offering the campaign capability, so the planner
// round-robins steps over every machine and the executor keeps
// campaignMachines calls in flight.
const (
	campaignMachines  = 16
	campaignWorkcells = 8
)

// BenchmarkCampaignThroughput sweeps broker shard counts at a fixed
// 16-machine fleet; each op is one single-operation part driven from
// compile-bound plan to acknowledged ledger event.
func BenchmarkCampaignThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchCampaignThroughput(b, shards)
		})
	}
}

func benchCampaignThroughput(b *testing.B, shards int) {
	workcells := make([]string, campaignWorkcells)
	for i := range workcells {
		workcells[i] = fmt.Sprintf("wc%02d", i)
	}
	fed, err := broker.NewFederation(shards, workcells, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	brokerAddr, err := fed.Addr(0)
	if err != nil {
		b.Fatal(err)
	}

	fleet := machinesim.NewFleet()
	defer fleet.Close()
	inv := make([]ops.MachineInfo, 0, campaignMachines)
	for i := 0; i < campaignMachines; i++ {
		name := fmt.Sprintf("m%02d", i)
		spec := machinesim.Spec{Name: name, Methods: []machinesim.MethodSpec{
			{Name: "process", Returns: []string{"Boolean"}},
		}}
		if _, err := fleet.Start(spec, 0); err != nil {
			b.Fatal(err)
		}
		inv = append(inv, ops.MachineInfo{
			Name:         name,
			Workcell:     workcells[i%campaignWorkcells],
			Line:         "line",
			Capabilities: []string{"process"},
		})
	}

	recipe := ops.Recipe{Part: "unit", Operations: []ops.Operation{
		{Name: "process", Capability: "process"},
	}}
	plan, err := ops.Compile(ops.Goal{Campaign: "bench", Part: "unit", Count: b.N}, recipe, inv)
	if err != nil {
		b.Fatal(err)
	}
	ex := ops.NewExecutor(plan, ops.ExecOptions{
		Resolver: func(machine string) (string, error) {
			m := fleet.Machine(machine)
			if m == nil {
				return "", fmt.Errorf("no machine %q", machine)
			}
			return m.Addr(), nil
		},
		BrokerAddr:  func() string { return brokerAddr },
		Concurrency: campaignMachines,
	})

	b.ResetTimer()
	rep, err := ex.Run()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Completed != b.N || rep.Failed != 0 {
		b.Fatalf("completed %d / failed %d of %d parts", rep.Completed, rep.Failed, b.N)
	}
	if rep.LedgerFlushed != uint64(b.N) {
		b.Fatalf("flushed %d of %d ledger events", rep.LedgerFlushed, b.N)
	}
	// The guard only holds once the round-robin has touched every
	// workcell: the framework's initial b.N=1 trial runs a single part,
	// which may land on a shard-0-owned workcell and forward nothing.
	if shards > 1 && b.N >= campaignMachines {
		var forwarded uint64
		for _, n := range fed.Nodes {
			forwarded += n.NodeStats().Forwarded
		}
		if forwarded == 0 {
			b.Fatal("no ledger events crossed a forward uplink; the benchmark measured nothing federated")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}
