package stack

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
)

// TestBridgeSurvivesServerRestart: the OPC UA server is torn down and a
// replacement comes up at a new address; the bridge client reconnects,
// resubscribes the machine in one request, every variable flows again,
// the goroutine count returns to its level before the restart, and service
// calls work again.
func TestBridgeSurvivesServerRestart(t *testing.T) {
	mc := machineConfig()

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
	defer machine.Close()
	machine.StartGenerator(5 * time.Millisecond)

	newServer := func(wrap func(net.Listener) net.Listener) *MachineServer {
		srv := NewMachineServer(codegen.ServerConfig{Name: "opcua-server-wc02", Workcell: "wc02"},
			[]codegen.MachineConfig{mc},
			MapResolver(map[string]string{"emco": machine.Addr()}), 5*time.Millisecond)
		srv.ListenWrapper = wrap
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := newServer(nil)

	var mu sync.Mutex
	serverAddr := srv.Addr()
	resolver := func(string) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		return serverAddr, nil
	}

	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	client := NewBridgeClient(codegen.ClientConfig{
		Name: "opcua-client-1",
		Machines: []codegen.ClientMachine{{
			Machine: "emco", Workcell: "wc02", Server: "opcua-server-wc02",
			Subscriptions: mc.Variables, Methods: mc.Methods,
		}},
	}, resolver, brk.Addr())
	client.ReconnectBackoff = 10 * time.Millisecond
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer client.Stop()

	_, ch, err := brk.Subscribe("factory/line1/wc02/emco/values/#")
	if err != nil {
		t.Fatal(err)
	}
	// awaitEvery waits for a sample of every variable on ch.
	awaitEvery := func(ch <-chan broker.Message, within time.Duration) bool {
		missing := map[string]bool{}
		for _, v := range mc.Variables {
			missing[v.Topic] = true
		}
		deadline := time.After(within)
		for len(missing) > 0 {
			select {
			case m := <-ch:
				delete(missing, m.Topic)
			case <-deadline:
				t.Logf("no sample on %v", missing)
				return false
			}
		}
		return true
	}
	if !awaitEvery(ch, 5*time.Second) {
		t.Fatal("not every variable sampled before restart")
	}
	before := goroutines()

	// Restart the server at a new address.
	srv.Stop()
	counter := &subscribeCounter{}
	srv2 := newServer(counter.wrap)
	defer srv2.Stop()
	mu.Lock()
	serverAddr = srv2.Addr()
	mu.Unlock()

	// The bridge reconnects and samples resume.
	deadline := time.Now().Add(10 * time.Second)
	for client.Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bridge never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Once the machine has resubscribed, a fresh broker subscription sees
	// only what was published since: every variable must flow again.
	eventually(t, 10*time.Second, "the machine to resubscribe", func() bool {
		requests, _ := counter.counts()
		return requests > 0
	})
	freshID, fresh, err := brk.Subscribe("factory/line1/wc02/emco/values/#")
	if err != nil {
		t.Fatal(err)
	}
	if !awaitEvery(fresh, 10*time.Second) {
		t.Fatal("not every variable sampled after server restart")
	}
	brk.Unsubscribe(freshID)
	if requests, nodes := counter.counts(); requests != 1 || nodes != len(mc.Variables) {
		t.Errorf("the machine resubscribed in %d requests listing %d nodes, want 1 listing %d", requests, nodes, len(mc.Variables))
	}
	eventually(t, 5*time.Second, "the goroutine count to return to its level before the restart", func() bool {
		return goroutines() <= before
	})

	// Service calls work against the new server too.
	bc, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	reply, err := CallService(bc, mc.Methods[0], nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.OK {
		t.Errorf("is_ready after restart: %+v", reply)
	}
}

// TestServiceRequestWhileBridgeDownAnsweredOnceAfterStart: requests to two
// services of one machine, published while its bridge is stopped, wait in
// the machine's one session and are each answered exactly once by the
// bridge that starts under the same name, and each runs on the machine
// once.
func TestServiceRequestWhileBridgeDownAnsweredOnceAfterStart(t *testing.T) {
	rig := startRig(t)
	rig.client.Stop()

	bc, err := broker.DialClient(rig.brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	replies := map[string]<-chan broker.Message{}
	for _, m := range rig.mc.Methods {
		_, ch, err := bc.Subscribe(m.ResponseTopic)
		if err != nil {
			t.Fatal(err)
		}
		replies[m.Name] = ch
		var args []any
		if len(m.Args) > 0 {
			args = []any{"prog.nc"}
		}
		payload, _ := json.Marshal(ServicePayload{Args: args, ID: "while-down-" + m.Name})
		if err := bc.Publish(m.RequestTopic, payload, false); err != nil {
			t.Fatal(err)
		}
	}

	client := NewBridgeClient(rig.client.Config, func(string) (string, error) { return rig.server.Addr(), nil }, rig.brk.Addr())
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer client.Stop()
	for _, m := range rig.mc.Methods {
		var reply ServiceReply
		select {
		case msg := <-replies[m.Name]:
			if err := json.Unmarshal(msg.Payload, &reply); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no reply after the bridge started", m.Name)
		}
		if !reply.OK || reply.ID != "while-down-"+m.Name {
			t.Errorf("%s: reply %+v", m.Name, reply)
		}
	}
	// A redelivery would come after the session's backoff (100 ms).
	time.Sleep(400 * time.Millisecond)
	for _, m := range rig.mc.Methods {
		select {
		case msg := <-replies[m.Name]:
			t.Errorf("%s: a second reply %s", m.Name, msg.Payload)
		default:
		}
		if n := rig.machine.CallCount(m.Name); n != 1 {
			t.Errorf("%s ran %d times on the machine, want once", m.Name, n)
		}
	}
}
