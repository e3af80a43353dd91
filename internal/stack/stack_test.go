package stack

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/opcua"
)

// testRig wires one machine emulator, one MachineServer and one
// BridgeClient to a broker.
type testRig struct {
	machine *machinesim.Machine
	server  *MachineServer
	client  *BridgeClient
	brk     *broker.Broker
	mc      codegen.MachineConfig
}

func machineConfig() codegen.MachineConfig {
	return codegen.MachineConfig{
		Machine: "emco", Line: "line1", Workcell: "wc02",
		Server: "opcua-server-wc02",
		Driver: codegen.DriverConfig{Type: "EMCODriver", Protocol: "EMCODriver",
			Parameters: map[string]any{"ip": "10.0.0.1", "ip_port": 5557}},
		Variables: []codegen.VarConfig{
			{Name: "actualX", Category: "Axes", Path: "Axes/actualX", Type: "Double",
				Direction: "out", NodeID: "ns=1;s=emco/Axes/actualX",
				Topic: "factory/line1/wc02/emco/values/Axes/actualX"},
			{Name: "mode", Category: "Status", Path: "Status/mode", Type: "String",
				Direction: "out", NodeID: "ns=1;s=emco/Status/mode",
				Topic: "factory/line1/wc02/emco/values/Status/mode"},
		},
		Methods: []codegen.MethodConfig{
			{Name: "is_ready", NodeID: "ns=1;s=emco/services/is_ready",
				RequestTopic:  "factory/line1/wc02/emco/services/is_ready/request",
				ResponseTopic: "factory/line1/wc02/emco/services/is_ready/response",
				Returns:       []codegen.ParamConfig{{Name: "result", Type: "Boolean"}}},
			{Name: "start_program", NodeID: "ns=1;s=emco/services/start_program",
				RequestTopic:  "factory/line1/wc02/emco/services/start_program/request",
				ResponseTopic: "factory/line1/wc02/emco/services/start_program/response",
				Args:          []codegen.ParamConfig{{Name: "program", Type: "String"}},
				Returns:       []codegen.ParamConfig{{Name: "result", Type: "Boolean"}}},
		},
	}
}

func startRig(t *testing.T) *testRig {
	t.Helper()
	return startRigWith(t, machineConfig())
}

// startRigWith is startRig with the machine configured as mc.
func startRigWith(t *testing.T, mc codegen.MachineConfig) *testRig {
	t.Helper()

	machine := machinesim.New(machinesim.Spec{
		Name: "emco",
		Vars: []machinesim.VarSpec{
			{Name: "Axes/actualX", Type: "Double", Category: "Axes"},
			{Name: "Status/mode", Type: "String", Category: "Status"},
		},
		Methods: []machinesim.MethodSpec{
			{Name: "is_ready", Returns: []string{"Boolean"}},
			{Name: "start_program", Args: []string{"String"}, Returns: []string{"Boolean"}},
		},
	})
	if err := machine.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { machine.Close() })

	srv := NewMachineServer(codegen.ServerConfig{Name: "opcua-server-wc02", Workcell: "wc02"},
		[]codegen.MachineConfig{mc},
		MapResolver(map[string]string{"emco": machine.Addr()}), 10*time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brk.Close() })

	client := NewBridgeClient(codegen.ClientConfig{
		Name: "opcua-client-1",
		Machines: []codegen.ClientMachine{{
			Machine: "emco", Workcell: "wc02", Server: "opcua-server-wc02",
			Subscriptions: mc.Variables, Methods: mc.Methods,
		}},
	}, func(string) (string, error) { return srv.Addr(), nil }, brk.Addr())
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Stop)

	return &testRig{machine: machine, server: srv, client: client, brk: brk, mc: mc}
}

func TestServerBuildsAddressSpace(t *testing.T) {
	rig := startRig(t)
	objects, variables, methods := rig.server.Space.CountByClass()
	if objects != 2 { // root + emco
		t.Errorf("objects = %d", objects)
	}
	if variables != 2 || methods != 2 {
		t.Errorf("variables/methods = %d/%d", variables, methods)
	}
}

func TestServerPollsMachineIntoSpace(t *testing.T) {
	rig := startRig(t)
	rig.machine.Step() // move values off their initial state
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		v, err := rig.server.Space.Read(opcua.NodeID("ns=1;s=emco/Axes/actualX"))
		if err == nil && v.Type == "Double" && v.AsFloat() != 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("polled value never reached the address space")
}

func TestBridgePublishesToBroker(t *testing.T) {
	rig := startRig(t)
	_, ch, err := rig.brk.Subscribe("factory/line1/wc02/emco/values/#")
	if err != nil {
		t.Fatal(err)
	}
	rig.machine.Step()
	select {
	case m := <-ch:
		var sample VariableSample
		if err := json.Unmarshal(m.Payload, &sample); err != nil {
			t.Fatalf("payload %s: %v", m.Payload, err)
		}
		if sample.Machine != "emco" || sample.Value == nil {
			t.Errorf("sample = %+v", sample)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no sample published")
	}
	// The counter increments after the bridge staged the publish, which
	// may trail local delivery; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if pub := rig.client.Stats().Published; pub > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("publish counter zero")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServiceProxyThroughBridge(t *testing.T) {
	rig := startRig(t)
	bc, err := broker.DialClient(rig.brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	reply, err := CallService(bc, rig.mc.Methods[0], nil, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK || reply.Results[0] != true {
		t.Errorf("is_ready reply = %+v", reply)
	}
	if rig.machine.CallCount("is_ready") != 1 {
		t.Errorf("machine call count = %d", rig.machine.CallCount("is_ready"))
	}

	// With args.
	reply, err = CallService(bc, rig.mc.Methods[1], []any{"prog.nc"}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK {
		t.Errorf("start_program reply = %+v", reply)
	}
	calls := rig.client.Stats().Calls
	if calls != 2 {
		t.Errorf("bridge call counter = %d", calls)
	}
}

func TestIdentityResolver(t *testing.T) {
	addr, err := IdentityResolver("m", codegen.DriverConfig{
		Parameters: map[string]any{"ip": "10.1.2.3", "ip_port": float64(5557)}})
	if err != nil || addr != "10.1.2.3:5557" {
		t.Errorf("addr = %q err = %v", addr, err)
	}
	if _, err := IdentityResolver("m", codegen.DriverConfig{Parameters: map[string]any{}}); err == nil {
		t.Error("want error without ip")
	}
}

func TestServerStartFailsOnBadEndpoint(t *testing.T) {
	mc := machineConfig()
	srv := NewMachineServer(codegen.ServerConfig{Name: "s"}, []codegen.MachineConfig{mc},
		MapResolver(map[string]string{}), 0)
	err := srv.Start("127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "no endpoint") {
		t.Errorf("err = %v", err)
	}
}

func TestBridgeStartFailsOnMissingServer(t *testing.T) {
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	mc := machineConfig()
	client := NewBridgeClient(codegen.ClientConfig{
		Name:     "c",
		Machines: []codegen.ClientMachine{{Machine: "emco", Server: "ghost", Subscriptions: mc.Variables}},
	}, func(s string) (string, error) { return "", strings.NewReader("").UnreadByte() },
		brk.Addr())
	// Resolver error must surface from Start.
	if err := client.Start(); err == nil {
		t.Error("want error for unresolvable server")
		client.Stop()
	}
}

func TestMalformedServiceRequest(t *testing.T) {
	rig := startRig(t)
	bc, err := broker.DialClient(rig.brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	raw, err := bc.Request(rig.mc.Methods[0].RequestTopic, rig.mc.Methods[0].ResponseTopic,
		[]byte(`{not json`), nil, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var reply ServiceReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.OK || !strings.Contains(reply.Error, "malformed") {
		t.Errorf("reply = %+v", reply)
	}
}

// TestBridgeStartRefusesUnservableServiceTopics: service topics that one
// session per machine cannot serve are refused by Start, with
// ErrServiceTopics and a message naming what is wrong.
func TestBridgeStartRefusesUnservableServiceTopics(t *testing.T) {
	method := func(name, base string) codegen.MethodConfig {
		return codegen.MethodConfig{Name: name, RequestTopic: base + "/" + name + "/request", ResponseTopic: base + "/" + name + "/response"}
	}
	const emcoBase, latheBase = "factory/line1/wc02/emco/services", "factory/line1/wc02/lathe/services"
	for _, tc := range []struct {
		name     string
		machines []codegen.ClientMachine
		want     string
	}{
		{"no request suffix", []codegen.ClientMachine{{Machine: "emco", Methods: []codegen.MethodConfig{
			{Name: "go", RequestTopic: emcoBase + "/go/req", ResponseTopic: emcoBase + "/go/response"}}}}, emcoBase + "/go/req"},
		{"no service level", []codegen.ClientMachine{{Machine: "emco", Methods: []codegen.MethodConfig{
			{Name: "go", RequestTopic: "request", ResponseTopic: "response"}}}}, `"request"`},
		{"empty service level", []codegen.ClientMachine{{Machine: "emco", Methods: []codegen.MethodConfig{
			method("", emcoBase)}}}, emcoBase + "//request"},
		{"wildcard", []codegen.ClientMachine{{Machine: "emco", Methods: []codegen.MethodConfig{
			method("+", emcoBase)}}}, emcoBase + "/+/request"},
		{"two bases", []codegen.ClientMachine{{Machine: "emco", Methods: []codegen.MethodConfig{
			method("a", emcoBase), method("b", latheBase)}}}, "under " + emcoBase + " and " + latheBase},
		{"shared filter", []codegen.ClientMachine{
			{Machine: "emco", Methods: []codegen.MethodConfig{method("a", emcoBase)}},
			{Machine: "lathe", Methods: []codegen.MethodConfig{method("b", emcoBase)}},
		}, "machines emco and lathe share the service filter " + emcoBase + "/+/request"},
	} {
		dialed := false
		client := NewBridgeClient(codegen.ClientConfig{Name: "c", Machines: tc.machines},
			func(string) (string, error) { dialed = true; return "", nil }, "127.0.0.1:1")
		err := client.Start()
		if !errors.Is(err, ErrServiceTopics) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Start = %v, want ErrServiceTopics naming %s", tc.name, err, tc.want)
		}
		if dialed {
			t.Errorf("%s: Start resolved a server before refusing", tc.name)
		}
		if err == nil {
			client.Stop()
		}
	}
}
