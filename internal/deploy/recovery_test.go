package deploy

import (
	"sync"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
)

// TestMachinePowerCycleHeals: a machine emulator dies and comes back at a
// new address; the OPC UA server's driver reconnect picks it up and data
// resumes flowing without any redeployment.
func TestMachinePowerCycleHeals(t *testing.T) {
	full := icelab.ICELab()
	spec := icelab.FactorySpec{
		TopologyName: full.TopologyName, Enterprise: full.Enterprise,
		Site: full.Site, Area: full.Area, Line: full.Line,
	}
	for _, m := range full.Machines {
		if m.Workcell == "workCell05" { // the warehouse: small and fast
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

	// Mutable endpoint table lets the "rebooted" machine change address.
	// The server's poller resolves through it from its own goroutine.
	var addrsMu sync.Mutex
	addrs := map[string]string{}
	var mc codegen.MachineConfig
	for _, m := range bundle.Intermediate.Machines {
		if m.Machine == "warehouse" {
			mc = m
		}
	}
	machine := machinesim.New(SpecForMachine(mc))
	if err := machine.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	machine.StartGenerator(5 * time.Millisecond)
	addrs["warehouse"] = machine.Addr()

	cluster := NewCluster(2, 16)
	cluster.MachineEndpoints = func(name string, _ codegen.DriverConfig) (string, error) {
		addrsMu.Lock()
		defer addrsMu.Unlock()
		return addrs[name], nil
	}
	cluster.PollPeriod = 5 * time.Millisecond
	if err := cluster.ApplyBundle(bundle); err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	series := "factory/ICEProductionLine/workCell05/warehouse/values/TrayStatus/trayWeight"
	waitForSeries(t, cluster, series, 2, 10*time.Second)

	// Power cycle: the emulator dies...
	if err := machine.Close(); err != nil {
		t.Fatal(err)
	}
	srv := cluster.Server("opcua-server-workcell05")
	deadline := time.Now().Add(5 * time.Second)
	for {
		errs := srv.Stats().Errors
		if errs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the outage")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ...and reboots at a different address.
	reborn := machinesim.New(SpecForMachine(mc))
	if err := reborn.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	reborn.StartGenerator(5 * time.Millisecond)
	addrsMu.Lock()
	addrs["warehouse"] = reborn.Addr()
	addrsMu.Unlock()

	// The server reconnects on its own and fresh samples flow again.
	deadline = time.Now().Add(10 * time.Second)
	for srv.Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("driver never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	countBefore := 0
	for _, name := range cluster.Historians() {
		countBefore += cluster.Historian(name).Store.Count(series)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		count := 0
		for _, name := range cluster.Historians() {
			count += cluster.Historian(name).Store.Count(series)
		}
		if count > countBefore {
			return // data resumed
		}
		if time.Now().After(deadline) {
			t.Fatal("no fresh samples after reconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
