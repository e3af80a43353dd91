package deploy

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/k8s"
	"github.com/smartfactory/sysml2conf/internal/stack"
)

// deployICELab generates the full ICE Lab bundle, starts the machine
// emulator fleet, and applies the bundle to a fresh simulated cluster.
func deployICELab(t *testing.T) (*Cluster, *codegen.Bundle) {
	t.Helper()
	factory := icelab.MustBuild(icelab.ICELab())
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })

	cluster := NewCluster(3, 16)
	cluster.MachineEndpoints = resolver
	cluster.PollPeriod = 10 * time.Millisecond
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Shutdown)
	return cluster, bundle
}

func TestApplyBundleAllPodsRunning(t *testing.T) {
	cluster, bundle := deployICELab(t)
	if !cluster.AllRunning() {
		for _, p := range cluster.Pods() {
			t.Logf("pod %s: %s %s", p.Name, p.Phase, p.Error)
		}
		t.Fatal("not all pods running")
	}
	// 1 broker + 6 servers + 4 clients + 4 historians + 3 monitors = 18.
	wantPods := 1 + bundle.Summary.Servers + 2*bundle.Summary.Clients + bundle.Summary.Monitors
	if got := len(cluster.Pods()); got != wantPods {
		t.Errorf("pods = %d, want %d", got, wantPods)
	}
	// Scheduler spread: no node should hold everything.
	loads := map[string]int{}
	for _, p := range cluster.Pods() {
		loads[p.Node]++
	}
	for node, n := range loads {
		if n == wantPods {
			t.Errorf("node %s holds all %d pods; scheduler did not spread", node, n)
		}
	}
}

func TestDataFlowsMachineToHistorian(t *testing.T) {
	cluster, _ := deployICELab(t)
	// The EMCO actualX variable must reach a historian via
	// machine emulator -> driver poll -> OPC UA -> bridge -> broker.
	series := "factory/ICEProductionLine/workCell02/emco/values/AxesPositions/actualX"
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, name := range cluster.Historians() {
			h := cluster.Historian(name)
			if h.Store.Count(series) >= 2 {
				p, err := h.Store.Latest(series)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := p.Float(); !ok {
					t.Fatalf("stored sample is not numeric: %s", p.Payload)
				}
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no EMCO actualX samples reached any historian within 10s")
}

func TestServiceCallRoundTrip(t *testing.T) {
	cluster, bundle := deployICELab(t)
	// Find the EMCO is_ready method config.
	var method codegen.MethodConfig
	for _, mc := range bundle.Intermediate.Machines {
		if mc.Machine != "emco" {
			continue
		}
		for _, m := range mc.Methods {
			if m.Name == "is_ready" {
				method = m
			}
		}
	}
	if method.Name == "" {
		t.Fatal("emco is_ready method not found in configs")
	}
	bc, err := broker.DialClient(cluster.BrokerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	reply, err := stack.CallService(bc, method, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK || len(reply.Results) != 1 {
		t.Fatalf("reply = %+v", reply)
	}
	if ready, ok := reply.Results[0].(bool); !ok || !ready {
		t.Errorf("is_ready = %v, want true", reply.Results[0])
	}
}

func TestServiceCallUnknownMethodFails(t *testing.T) {
	cluster, _ := deployICELab(t)
	bc, err := broker.DialClient(cluster.BrokerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	// A request topic nobody listens on times out rather than hanging.
	fake := codegen.MethodConfig{
		RequestTopic:  "factory/x/y/z/services/ghost/request",
		ResponseTopic: "factory/x/y/z/services/ghost/response",
	}
	if _, err := stack.CallService(bc, fake, nil, 300*time.Millisecond); err == nil {
		t.Error("expected timeout for unhandled service")
	}
}

// TestServiceCallUnknownServiceFails: a request for a service a deployed
// machine does not have reaches the bridge on the machine's service filter
// and is answered with a failed reply naming the service, well before the
// caller's timeout.
func TestServiceCallUnknownServiceFails(t *testing.T) {
	cluster, bundle := deployICELab(t)
	var isReady codegen.MethodConfig
	for _, mc := range bundle.Intermediate.Machines {
		for _, m := range mc.Methods {
			if mc.Machine == "emco" && m.Name == "is_ready" {
				isReady = m
			}
		}
	}
	if isReady.Name == "" {
		t.Fatal("emco is_ready method not found in configs")
	}
	ghost := codegen.MethodConfig{
		RequestTopic:  strings.Replace(isReady.RequestTopic, "/is_ready/", "/ghost/", 1),
		ResponseTopic: strings.Replace(isReady.ResponseTopic, "/is_ready/", "/ghost/", 1),
	}
	bc, err := broker.DialClient(cluster.BrokerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	const timeout = 5 * time.Second
	start := time.Now()
	reply, err := stack.CallService(bc, ghost, nil, timeout)
	if err != nil {
		t.Fatalf("%s: %v, want a failed reply", ghost.RequestTopic, err)
	}
	if took := time.Since(start); took > timeout/5 {
		t.Errorf("the reply took %v of the %v timeout", took, timeout)
	}
	if reply.OK || !strings.Contains(reply.Error, `"ghost"`) {
		t.Errorf("reply = %+v, want a failure naming the service", reply)
	}
}

func TestClientStartedBeforeBrokerFails(t *testing.T) {
	factory := icelab.MustBuild(icelab.ICELab())
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(3, 16)
	cluster.MachineEndpoints = resolver
	defer cluster.Shutdown()

	// Apply only a client manifest: dependency ordering inside Apply cannot
	// help because the broker manifest is absent entirely.
	var clientOnly []byte
	for name, data := range bundle.Manifests {
		if strings.Contains(name, "opcua-client-1") {
			clientOnly = data
		}
	}
	if clientOnly == nil {
		t.Fatal("client manifest not found")
	}
	objs, err := k8s.Decode(clientOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Apply(objs); err == nil {
		t.Error("client without broker should fail to deploy")
	}
	failed := 0
	for _, p := range cluster.Pods() {
		if p.Phase == PodFailed {
			failed++
		}
	}
	if failed == 0 {
		t.Error("expected a Failed pod")
	}
}

func TestSchedulerCapacityExhaustion(t *testing.T) {
	factory := icelab.MustBuild(icelab.ICELab())
	bundle, err := codegen.Generate(factory, codegen.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cluster := NewCluster(1, 2) // room for only 2 pods
	cluster.MachineEndpoints = resolver
	defer cluster.Shutdown()
	if err := cluster.ApplyBundle(bundle); err == nil {
		t.Error("expected scheduling failure on a full cluster")
	} else if !strings.Contains(err.Error(), "no schedulable node") {
		t.Errorf("err = %v", err)
	}
}

func TestSpecForMachine(t *testing.T) {
	factory := icelab.MustBuild(icelab.ICELab())
	in, err := codegen.BuildIntermediate(factory, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range in.Machines {
		spec := SpecForMachine(mc)
		if spec.Name != mc.Machine {
			t.Errorf("spec name = %s", spec.Name)
		}
		if len(spec.Vars) != len(mc.Variables) || len(spec.Methods) != len(mc.Methods) {
			t.Errorf("%s: spec %d/%d vs config %d/%d", mc.Machine,
				len(spec.Vars), len(spec.Methods), len(mc.Variables), len(mc.Methods))
		}
	}
}

// TestConfigNameMismatchRefused: a client.json whose name is not its
// Deployment's is refused at start. Accepted, the cluster would know the
// component by one name and probe the pod by the other, and every
// supervised restart would start a bridge client without stopping the last.
func TestConfigNameMismatchRefused(t *testing.T) {
	bundle := millingBundle(t)
	fleet, resolver, err := StartFleet(bundle.Intermediate.Machines, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Fresh objects, so the bundle's own stay untouched.
	var objs []k8s.Object
	for _, data := range bundle.Manifests {
		o, err := k8s.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o...)
	}
	const deployment, renamed = "opcua-client-1", "opcua-client-renamed"
	edited := false
	for _, o := range objs {
		if o.Kind() != "ConfigMap" || o.Name() != deployment+"-config" {
			continue
		}
		data := o.Raw["data"].(map[string]any)
		var cc map[string]any
		if err := json.Unmarshal([]byte(data["client.json"].(string)), &cc); err != nil {
			t.Fatal(err)
		}
		cc["name"] = renamed
		raw, err := json.Marshal(cc)
		if err != nil {
			t.Fatal(err)
		}
		data["client.json"] = string(raw)
		edited = true
	}
	if !edited {
		t.Fatalf("no ConfigMap %s-config in the bundle", deployment)
	}

	before := runtime.NumGoroutine()
	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = resolver
	fastProbes(cluster)
	err = cluster.Apply(objs)
	if err == nil || !strings.Contains(err.Error(), deployment) || !strings.Contains(err.Error(), renamed) {
		t.Errorf("Apply = %v, want an error naming %s and %s", err, deployment, renamed)
	}
	if p, ok := cluster.PodStatus(deployment); !ok || p.Phase != PodFailed {
		t.Errorf("pod %s: %+v, want Failed", deployment, p)
	}
	for _, name := range []string{deployment, renamed} {
		if comp := running[component](cluster, name); comp != nil {
			t.Errorf("a component runs under %s: %T", name, comp)
		}
	}

	cluster.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Shutdown, %d before Apply", after, before)
	}
}
