package main

import (
	"strings"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/codegen"
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
