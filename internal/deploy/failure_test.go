package deploy

import (
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/stack"
)

// millingBundle generates the two-machine workcell 02 bundle.
func millingBundle(t *testing.T) *codegen.Bundle {
	t.Helper()
	full := icelab.ICELab()
	spec := icelab.FactorySpec{
		TopologyName: full.TopologyName, Enterprise: full.Enterprise,
		Site: full.Site, Area: full.Area, Line: full.Line,
	}
	for _, m := range full.Machines {
		if m.Workcell == "workCell02" {
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

func TestMachineDeathSurfacesAsPollErrorsAndServiceFailure(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	cluster.PollPeriod = 5 * time.Millisecond
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	srv := cluster.Server("opcua-server-workcell02")
	if srv == nil {
		t.Fatal("server missing")
	}

	// Kill the EMCO emulator mid-run.
	if err := fleet.Machine("emco").Close(); err != nil {
		t.Fatal(err)
	}

	// Poll errors must start accumulating (the UR5e keeps polling fine).
	errsBefore := srv.Stats().Errors
	deadline := time.Now().Add(5 * time.Second)
	for {
		errs := srv.Stats().Errors
		if errs > errsBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no poll errors after machine death")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A service call against the dead machine fails with an error reply,
	// not a hang.
	var isReady codegen.MethodConfig
	for _, mc := range bundle.Intermediate.Machines {
		if mc.Machine == "emco" {
			for _, m := range mc.Methods {
				if m.Name == "is_ready" {
					isReady = m
				}
			}
		}
	}
	bc, err := broker.DialClient(cluster.BrokerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	reply, err := stack.CallService(bc, isReady, nil, 3*time.Second)
	if err != nil {
		t.Fatalf("transport error instead of error reply: %v", err)
	}
	if reply.OK {
		t.Error("service against dead machine reported OK")
	}
	if reply.Error == "" {
		t.Error("error reply lacks a message")
	}

	// The sibling UR5e machine remains fully serviceable.
	var ur5Ready codegen.MethodConfig
	for _, mc := range bundle.Intermediate.Machines {
		if mc.Machine == "ur5" {
			for _, m := range mc.Methods {
				if m.Name == "is_ready" {
					ur5Ready = m
				}
			}
		}
	}
	reply, err = stack.CallService(bc, ur5Ready, nil, 3*time.Second)
	if err != nil || !reply.OK {
		t.Errorf("ur5 degraded by emco death: %v %+v", err, reply)
	}
}

func TestDuplicateDeploymentRejected(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	err = cluster.ApplyBundle(bundle)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("second apply err = %v", err)
	}
}

func TestShutdownIsIdempotentAndStopsDataFlow(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	cluster.PollPeriod = 5 * time.Millisecond
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	cluster.Shutdown()
	cluster.Shutdown() // idempotent
	if cluster.BrokerAddr() != "" {
		t.Error("broker addr survives shutdown")
	}
	if len(cluster.Historians()) != 0 {
		t.Error("historians survive shutdown")
	}
}

func TestBundleIsSelfContained(t *testing.T) {
	// The generated bundle alone (no Go-side Intermediate structs) carries
	// everything the cluster needs: decode every manifest and re-derive
	// the pod plan purely from YAML.
	bundle := millingBundle(t)
	components := map[string]int{}
	for name, data := range bundle.Manifests {
		objs, err := k8s.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, o := range objs {
			if o.Kind() != "Deployment" {
				continue
			}
			comp := o.Labels()["factory.io/component"]
			if comp == "" && o.Labels()["app"] == "message-broker" {
				comp = "message-broker"
			}
			if comp == "" {
				t.Errorf("%s: deployment %s lacks component label", name, o.Name())
			}
			components[comp]++
		}
	}
	if components["opcua-server"] != 1 || components["opcua-client"] != 2 ||
		components["historian"] != 2 || components["message-broker"] != 1 {
		t.Errorf("components = %v", components)
	}
}
