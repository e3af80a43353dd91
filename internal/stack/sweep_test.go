package stack

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/opcua"
)

// sweepMachine builds the emulator spec and the matching machine config of
// a machine with the given variable types, named v0, v1, ...
func sweepMachine(name string, types ...string) (machinesim.Spec, codegen.MachineConfig) {
	spec := machinesim.Spec{Name: name}
	mc := codegen.MachineConfig{Machine: name, Workcell: "wc", Server: "srv"}
	for i, typ := range types {
		path := fmt.Sprintf("Group/v%d", i)
		spec.Vars = append(spec.Vars, machinesim.VarSpec{Name: path, Type: typ, Category: "Group"})
		mc.Variables = append(mc.Variables, codegen.VarConfig{
			Name: fmt.Sprintf("v%d", i), Category: "Group", Path: path, Type: typ,
			NodeID: fmt.Sprintf("ns=1;s=%s/%s", name, path),
		})
	}
	return spec, mc
}

func serveMachine(t *testing.T, spec machinesim.Spec, wrap func(net.Listener) net.Listener) *machinesim.Machine {
	t.Helper()
	m := machinesim.New(spec)
	m.ListenWrapper = wrap
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func eventually(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepWritesWhatPerVariableReadsWrote: the batched sweep leaves every
// node byte- and type-identical to what the per-variable path it replaced
// stored — Space.Write(id, opcua.V(conn.Get(path))).
func TestSweepWritesWhatPerVariableReadsWrote(t *testing.T) {
	spec, mc := sweepMachine("m", "Double", "Integer", "Boolean", "String")
	machine := serveMachine(t, spec, nil)
	srv := NewMachineServer(codegen.ServerConfig{Name: "srv"}, []codegen.MachineConfig{mc},
		MapResolver(map[string]string{"m": machine.Addr()}), 2*time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, err := machinesim.DialMachine(machine.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ref := opcua.NewAddressSpace()
	for _, v := range mc.Variables {
		if _, err := ref.AddVariable(ref.Root(), opcua.NodeID(v.NodeID), v.Name, v.Type, opcua.V(nil), nil); err != nil {
			t.Fatal(err)
		}
	}

	for round, values := range [][]any{
		{1e-7, float64(42), true, `a "quoted" \ value`},
		{1e21, 7, false, "<tag> & co, [x]"},
		{-0.5, float64(-3), true, ""},
		{float64(0), 1e6, false, "idle"},
	} {
		for i, v := range mc.Variables {
			if err := machine.Set(v.Path, values[i]); err != nil {
				t.Fatal(err)
			}
			decoded, err := conn.Get(v.Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Write(opcua.NodeID(v.NodeID), opcua.V(decoded)); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range mc.Variables {
			id := opcua.NodeID(v.NodeID)
			want, _ := ref.Read(id)
			var got opcua.Variant
			deadline := time.Now().Add(3 * time.Second)
			for {
				got, _ = srv.Space.Read(id)
				if got.Equal(want) || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if !got.Equal(want) {
				t.Errorf("round %d %s (%s): sweep stored %s %s, per-variable path stored %s %s",
					round, v.Path, v.Type, got.Type, got.Value, want.Type, want.Value)
			}
		}
	}
}

// stallGate makes a machine sit on its responses: once shut, every response
// write blocks until open is called. blocked is closed when the first one
// does.
type stallGate struct {
	shut     atomic.Bool
	once     sync.Once
	blocked  chan struct{}
	released chan struct{}
}

func newStallGate() *stallGate {
	return &stallGate{blocked: make(chan struct{}), released: make(chan struct{})}
}

func (g *stallGate) open() { g.shut.Store(false); close(g.released) }

func (g *stallGate) wrap(ln net.Listener) net.Listener { return gatedListener{ln, g} }

type gatedListener struct {
	net.Listener
	g *stallGate
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return gatedConn{c, l.g}, nil
}

type gatedConn struct {
	net.Conn
	g *stallGate
}

func (c gatedConn) Write(p []byte) (int, error) {
	if c.g.shut.Load() {
		c.g.once.Do(func() { close(c.g.blocked) })
		<-c.g.released
	}
	return c.Conn.Write(p)
}

// TestStalledMachineDelaysNobody: while one machine of a workcell sits on a
// sweep, its neighbour's variables keep arriving within two poll periods,
// and Stop does not wait for the stalled call to time out.
func TestStalledMachineDelaysNobody(t *testing.T) {
	const poll = 100 * time.Millisecond
	gate := newStallGate()
	slowSpec, slowMC := sweepMachine("slow", "Double")
	fastSpec, fastMC := sweepMachine("fast", "Double")
	slow := serveMachine(t, slowSpec, gate.wrap)
	t.Cleanup(gate.open) // before the emulator's Close, which waits for its handlers
	fast := serveMachine(t, fastSpec, nil)
	srv := NewMachineServer(codegen.ServerConfig{Name: "srv"}, []codegen.MachineConfig{slowMC, fastMC},
		MapResolver(map[string]string{"slow": slow.Addr(), "fast": fast.Addr()}), poll)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	fastID := opcua.NodeID(fastMC.Variables[0].NodeID)
	fastArrives := func(v float64) func() bool {
		if err := fast.Set("Group/v0", v); err != nil {
			t.Fatal(err)
		}
		return func() bool {
			got, _ := srv.Space.Read(fastID)
			return got.Type == "Double" && got.AsFloat() == v
		}
	}
	eventually(t, 3*time.Second, "the first sweep", fastArrives(1))

	gate.shut.Store(true)
	select {
	case <-gate.blocked: // the slow machine's poller is now inside a sweep that will not answer
	case <-time.After(3 * time.Second):
		t.Fatal("the slow machine was never swept")
	}
	var lags []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		eventually(t, machinesim.DefaultCallTimeout, "the fast machine's update", fastArrives(float64(10+i)))
		lags = append(lags, time.Since(t0))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if median := lags[len(lags)/2]; median > 2*poll {
		t.Errorf("neighbour updates took %v (median %v) beside a stalled machine, want within %v", lags, median, 2*poll)
	}

	t0 := time.Now()
	srv.Stop()
	if took := time.Since(t0); took > time.Second {
		t.Errorf("Stop took %v with a sweep stalled on the machine", took)
	}
}

// TestPowerCycleRePreparesAndResumes: a dead machine costs one error per
// failed cycle and no polls, trips its breaker and fails readiness; when it
// comes back (at another address, with no memory of the old connection's
// prepared list) the poller redials, prepares again and the sweep resumes.
func TestPowerCycleRePreparesAndResumes(t *testing.T) {
	spec, mc := sweepMachine("m", "Double", "String", "Boolean")
	machine := serveMachine(t, spec, nil)
	var mu sync.Mutex
	addr := machine.Addr()
	resolver := func(string, codegen.DriverConfig) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		return addr, nil
	}
	srv := NewMachineServer(codegen.ServerConfig{Name: "srv"}, []codegen.MachineConfig{mc}, resolver, 2*time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	nvars := uint64(len(mc.Variables))
	eventually(t, 3*time.Second, "a few sweeps", func() bool { polls := srv.Stats().Polls; return polls >= 3*nvars })
	if err := srv.Ready(); err != nil {
		t.Fatalf("not ready with the machine up: %v", err)
	}

	machine.Close()
	eventually(t, 5*time.Second, "the dead connection to be dropped", func() bool { return srv.Ready() != nil })
	if trips := srv.BreakerTrips("m"); trips < 1 { // failed redial probes re-open it
		t.Errorf("breaker trips = %d with the connection dropped", trips)
	}
	st := srv.Stats()
	polls, errs := st.Polls, st.Errors
	if polls%nvars != 0 {
		t.Errorf("polls = %d, not a whole number of %d-variable sweeps", polls, nvars)
	}
	if errs != reconnectThreshold {
		t.Errorf("errs = %d at the first trip, want one per failed cycle = %d", errs, reconnectThreshold)
	}
	if got := srv.Stats().Reconnects; got != 0 {
		t.Errorf("reconnects = %d with the machine still down", got)
	}

	reborn := serveMachine(t, spec, nil)
	if err := reborn.Set("Group/v0", 77.5); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	addr = reborn.Addr()
	mu.Unlock()
	eventually(t, 5*time.Second, "the redial", func() bool { return srv.Stats().Reconnects == 1 })
	eventually(t, 3*time.Second, "the resumed sweep", func() bool {
		v, _ := srv.Space.Read(opcua.NodeID(mc.Variables[0].NodeID))
		return v.AsFloat() == 77.5
	})
	if err := srv.Ready(); err != nil {
		t.Errorf("not ready after the redial: %v", err)
	}
	stAfter := srv.Stats()
	pollsAfter, errsAfter := stAfter.Polls, stAfter.Errors
	if pollsAfter <= polls || pollsAfter%nvars != 0 {
		t.Errorf("polls went %d → %d across the power cycle", polls, pollsAfter)
	}
	if errsAfter != errs {
		t.Errorf("errs went %d → %d with no further failed cycle", errs, errsAfter)
	}
}

// TestSteadySweepAllocationIsConstant: sweeping a machine whose values did
// not change allocates the same small constant whether it has 10 variables
// or 100 — emulator side included, both ends being in this process.
func TestSteadySweepAllocationIsConstant(t *testing.T) {
	perSweep := func(nvars int) float64 {
		types := make([]string, nvars)
		for i := range types {
			types[i] = []string{"Double", "Integer", "Boolean", "String"}[i%4]
		}
		spec, mc := sweepMachine(fmt.Sprintf("m%d", nvars), types...)
		machine := serveMachine(t, spec, nil)
		// The ticker never fires: the test drives the poller by hand.
		srv := NewMachineServer(codegen.ServerConfig{Name: "srv"}, []codegen.MachineConfig{mc},
			MapResolver(map[string]string{mc.Machine: machine.Addr()}), time.Hour)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Stop()
		p := srv.pollers[0]
		p.pollOnce() // the first sweep stores every value and sizes the buffers
		allocs := testing.AllocsPerRun(200, p.pollOnce)
		if st := srv.Stats(); st.Errors != 0 || st.Polls != uint64(202*nvars) {
			t.Fatalf("%d variables: polls = %d, errs = %d after 202 sweeps", nvars, st.Polls, st.Errors)
		}
		return allocs
	}
	small, large := perSweep(10), perSweep(100)
	t.Logf("steady sweep: %v allocations for 10 variables, %v for 100", small, large)
	if small != large || small > 2 {
		t.Errorf("steady sweep allocates %v objects for 10 variables and %v for 100, want the same constant ≤ 2", small, large)
	}
}

// TestStartPrepareOutcomes: a machine that refuses the sweep list fails
// Start (a configuration error); an endpoint that accepts the connection
// and then drops it does not (an outage) — the server comes up not ready
// and the poller heals the connection once the machine is there.
func TestStartPrepareOutcomes(t *testing.T) {
	spec, mc := sweepMachine("m", "Double")
	machine := serveMachine(t, spec, nil)

	wrong := mc
	wrong.Variables = append([]codegen.VarConfig(nil), mc.Variables...)
	wrong.Variables[0].Path = "Group/missing"
	srv := NewMachineServer(codegen.ServerConfig{Name: "srv"}, []codegen.MachineConfig{wrong},
		MapResolver(map[string]string{"m": machine.Addr()}), time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "unknown variable") {
		srv.Stop()
		t.Fatalf("Start with a variable the machine lacks: err = %v", err)
	}

	hangup, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hangup.Close()
	go func() {
		for {
			c, err := hangup.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	var mu sync.Mutex
	addr := hangup.Addr().String()
	srv = NewMachineServer(codegen.ServerConfig{Name: "srv"}, []codegen.MachineConfig{mc},
		func(string, codegen.DriverConfig) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			return addr, nil
		}, time.Millisecond)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start against an endpoint that hangs up: %v", err)
	}
	defer srv.Stop()
	if err := srv.Ready(); err == nil {
		t.Error("ready without a prepared connection")
	}
	mu.Lock()
	addr = machine.Addr()
	mu.Unlock()
	eventually(t, 5*time.Second, "the poller to heal the connection", func() bool { return srv.Ready() == nil })
	if got := srv.Stats().Reconnects; got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
}
