package main

import (
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/deploy"
	"github.com/smartfactory/sysml2conf/internal/faultinject"
	"github.com/smartfactory/sysml2conf/internal/icelab"
)

// TestPodsPerNodeFitsTheBundle: the nodes hold every Deployment of a plant
// sixteen times the ICE Lab, more than 32 pods per node would.
func TestPodsPerNodeFitsTheBundle(t *testing.T) {
	factory, _, err := icelab.Build(icelab.Scaled(16))
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deployments := 0
	for name, data := range bundle.Manifests {
		if !strings.Contains(name, "namespace") {
			deployments += strings.Count(string(data), "\nkind: Deployment")
		}
	}
	if deployments <= clusterNodes*32 {
		t.Fatalf("Scaled(16) has %d Deployments, which 32 pods per node would hold", deployments)
	}
	if got := podsPerNode(bundle); clusterNodes*got < deployments {
		t.Errorf("%d nodes of %d pods cannot hold %d Deployments", clusterNodes, got, deployments)
	}
}

// TestAuditExactlyOnceAcrossBrokerPartition: the -audit path on a deployed
// ICE Lab. The broker is partitioned for 200 ms while the samples are being
// published, which severs the audit publisher's connection; its outbox
// re-sends what the connection left unacknowledged, and verifyAudit must
// still find every sample in the historian exactly once.
func TestAuditExactlyOnceAcrossBrokerPartition(t *testing.T) {
	factory, _, err := icelab.Build(icelab.Scaled(1))
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, resolver, err := deploy.StartFleet(bundle.Intermediate.Machines, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cluster := deploy.NewCluster(clusterNodes, podsPerNode(bundle))
	cluster.MachineEndpoints = resolver
	cluster.PollPeriod = 50 * time.Millisecond
	cluster.FaultInjector = faultinject.New(1)
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const count = 200
	topic, done := startAudit(cluster, bundle, count)
	// The samples go out at least 1 ms apart, so 50 ms in is mid-publish.
	time.Sleep(50 * time.Millisecond)
	if err := cluster.PartitionComponent("broker", true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := cluster.PartitionComponent("broker", false); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("audit publisher: %v", err)
	}
	if !verifyAudit(cluster, bundle, topic, count) {
		t.Fatal("verifyAudit failed; see its FAIL line above")
	}
}
