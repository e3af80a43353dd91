package stack

import (
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
	for client.Reconnects() == 0 {
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
