package stack

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/broker"
	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/opcua"
)

// tapFrames wraps a server's listener so that onFrame sees the op byte and
// body of every frame the server reads. It adds no goroutine: the frames
// are split on the server's own read.
func tapFrames(ln net.Listener, onFrame func(op byte, body []byte)) net.Listener {
	return tapListener{ln, onFrame}
}

type tapListener struct {
	net.Listener
	onFrame func(op byte, body []byte)
}

func (l tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, onFrame: l.onFrame}, nil
}

// tapConn keeps the bytes of a frame the server has only partly read.
// Read has one caller, the server's read loop, so buf needs no lock.
type tapConn struct {
	net.Conn
	onFrame func(op byte, body []byte)
	buf     []byte
}

func (tc *tapConn) Read(p []byte) (int, error) {
	n, err := tc.Conn.Read(p)
	tc.buf = append(tc.buf, p[:n]...)
	for {
		op, body, rest, ok := nextFrame(tc.buf)
		if !ok {
			break
		}
		tc.onFrame(op, body)
		tc.buf = rest
	}
	return n, err
}

// subscribeCounter counts the subscribe requests that reach the OPC UA
// servers whose listeners it wraps, and the nodes they list, by decoding
// every frame a server reads.
type subscribeCounter struct {
	mu              sync.Mutex
	requests, nodes int
}

func (c *subscribeCounter) wrap(ln net.Listener) net.Listener { return tapFrames(ln, c.frame) }

func (c *subscribeCounter) counts() (requests, nodes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests, c.nodes
}

// frame counts a frame if it is a subscribe request.
func (c *subscribeCounter) frame(op byte, body []byte) {
	var m opcua.Message
	if op != 0 && m.DecodeBinaryBody(op, body) == nil && m.Op == opcua.OpSubscribe {
		c.mu.Lock()
		c.requests++
		c.nodes += len(m.NodeIDs)
		c.mu.Unlock()
	}
}

// nextFrame splits the first complete frame off b (internal/wire's grammar:
// magic, version, op, header flags, two uvarints when flag bit 0 carries
// an ack, the body length and the body); ok is false while b holds no
// complete frame.
func nextFrame(b []byte) (op byte, body, rest []byte, ok bool) {
	if len(b) < 4 {
		return 0, nil, b, false
	}
	op, rest = b[2], b[4:]
	fields := 1
	if b[3]&1 != 0 {
		fields = 3
	}
	var n uint64
	for ; fields > 0; fields-- {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, nil, b, false
		}
		n, rest = v, rest[k:]
	}
	if uint64(len(rest)) < n {
		return 0, nil, b, false
	}
	return op, rest[:n], rest[n:], true
}

// goroutines is the process's goroutine count without the short-lived ones
// (the wire writers' flushers, a sweep's notifications in flight): the
// least of a run of samples.
func goroutines() int {
	least := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		time.Sleep(5 * time.Millisecond)
		least = min(least, runtime.NumGoroutine())
	}
	return least
}

// startICELab serves the ICE Lab's emulated machines, its workcell servers
// (their listeners wrapped by serverWrap) and a broker (its listener
// wrapped by brokerWrap) for the lab's client modules to bridge; a nil
// wrapper wraps nothing.
func startICELab(t *testing.T, serverWrap, brokerWrap func(net.Listener) net.Listener) (*codegen.Intermediate, ServerResolver, *broker.Broker) {
	t.Helper()
	in, err := codegen.BuildIntermediate(icelab.MustBuild(icelab.ICELab()), codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{}
	byName := map[string]codegen.MachineConfig{}
	for _, mc := range in.Machines {
		spec := machinesim.Spec{Name: mc.Machine}
		for _, v := range mc.Variables {
			spec.Vars = append(spec.Vars, machinesim.VarSpec{Name: v.Path, Type: v.Type, Category: v.Category})
		}
		for _, m := range mc.Methods {
			spec.Methods = append(spec.Methods, machinesim.MethodSpec{Name: m.Name})
		}
		addrs[mc.Machine] = serveMachine(t, spec, nil).Addr()
		byName[mc.Machine] = mc
	}
	serverAddrs := map[string]string{}
	for _, sc := range in.Servers {
		var machines []codegen.MachineConfig
		for _, name := range sc.Machines {
			machines = append(machines, byName[name])
		}
		srv := NewMachineServer(sc, machines, MapResolver(addrs), 10*time.Millisecond)
		srv.ListenWrapper = serverWrap
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		serverAddrs[sc.Name] = srv.Addr()
	}
	brk := broker.New()
	brk.ListenWrapper = brokerWrap
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brk.Close() })
	return in, func(server string) (string, error) { return serverAddrs[server], nil }, brk
}

// TestBridgeSubscribesOncePerMachine bridges the ICE Lab: its emulated
// machines, its workcell servers and its client modules. Every machine is
// subscribed in one request that lists all of its variables, and what the
// bridge costs in goroutines, on both ends of the OPC UA connection, does
// not grow with the variables: one per machine on each side, where one per
// variable on each side cost 2·(variables − machines) more.
func TestBridgeSubscribesOncePerMachine(t *testing.T) {
	counter := &subscribeCounter{}
	in, resolve, brk := startICELab(t, counter.wrap, nil)

	machines, variables := 0, 0
	oneEach := make([]codegen.ClientConfig, len(in.Clients))
	for i, cc := range in.Clients {
		oneEach[i] = cc
		oneEach[i].Machines = append([]codegen.ClientMachine(nil), cc.Machines...)
		for j, cm := range cc.Machines {
			if len(cm.Subscriptions) > 0 {
				machines++
				variables += len(cm.Subscriptions)
				oneEach[i].Machines[j].Subscriptions = cm.Subscriptions[:1]
			}
		}
	}
	if variables < 4*machines {
		t.Fatalf("the ICE Lab bridges %d variables of %d machines: too few to tell a machine from a variable", variables, machines)
	}

	// bridge starts every client module of configs and reports the
	// goroutines they added and the subscribe requests and nodes that
	// reached the servers.
	bridge := func(configs []codegen.ClientConfig) (added, requests, nodes int) {
		base := goroutines()
		r0, n0 := counter.counts()
		var clients []*BridgeClient
		for _, cc := range configs {
			c := NewBridgeClient(cc, resolve, brk.Addr())
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		added = goroutines() - base
		r1, n1 := counter.counts()
		for _, c := range clients {
			c.Stop()
		}
		eventually(t, 5*time.Second, "the bridge's goroutines to end", func() bool { return goroutines() <= base })
		return added, r1 - r0, n1 - n0
	}

	oneAdded, requests, nodes := bridge(oneEach)
	if requests != machines || nodes != machines {
		t.Errorf("one variable per machine: %d subscribe requests listing %d nodes, want %d and %d", requests, nodes, machines, machines)
	}
	allAdded, requests, nodes := bridge(in.Clients)
	if requests != machines || nodes != variables {
		t.Errorf("every variable: %d subscribe requests listing %d nodes, want one per machine (%d) listing all %d variables",
			requests, nodes, machines, variables)
	}
	t.Logf("%d machines, %d variables: bridging one variable per machine adds %d goroutines, every variable %d",
		machines, variables, oneAdded, allAdded)
	// The slack absorbs a goroutine the sampling could not tell from a
	// lasting one; the per-variable shape would be 2·(variables − machines)
	// over.
	if extra := allAdded - oneAdded; extra > 4 {
		t.Errorf("bridging all %d variables costs %d more goroutines than bridging one per machine, want the same (one per machine on each side)",
			variables, extra)
	}
}

// TestBridgeSubscribesServicesOncePerMachine bridges the ICE Lab and counts
// the subscribe frames its client modules send the broker: one acked
// session per machine with services, where a session per service sent one
// per service. Every service of every machine then answers through those
// sessions.
func TestBridgeSubscribesServicesOncePerMachine(t *testing.T) {
	var subscribes atomic.Int64
	in, resolve, brk := startICELab(t, nil, func(ln net.Listener) net.Listener {
		return tapFrames(ln, func(op byte, _ []byte) {
			if op == 2 { // the broker's subscribe op, a wire contract (internal/broker/wirecodec.go)
				subscribes.Add(1)
			}
		})
	})
	machines, services := 0, 0
	for _, cc := range in.Clients {
		for _, cm := range cc.Machines {
			if len(cm.Methods) > 0 {
				machines++
				services += len(cm.Methods)
			}
		}
	}
	if services < 2*machines {
		t.Fatalf("the ICE Lab has %d services on %d machines: too few to tell a machine from a service", services, machines)
	}
	for _, cc := range in.Clients {
		c := NewBridgeClient(cc, resolve, brk.Addr())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
	}
	if n := subscribes.Load(); n != int64(machines) {
		t.Errorf("the bridge sent %d service subscribes for %d services on %d machines, want one per machine", n, services, machines)
	}

	bc, err := broker.DialClient(brk.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	for _, cc := range in.Clients {
		for _, cm := range cc.Machines {
			for _, m := range cm.Methods {
				if reply, err := CallService(bc, m, nil, 5*time.Second); err != nil || !reply.OK {
					t.Errorf("%s %s: %+v, %v", cm.Machine, m.Name, reply, err)
				}
			}
		}
	}
}

// TestBridgeLoopFailureFailsHealth: a machine loop that ends other than by
// Stop — here its publish is refused — fails Health, so the supervisor
// restarts the pod instead of leaving the machine silent.
func TestBridgeLoopFailureFailsHealth(t *testing.T) {
	mc := machineConfig()
	mc.Variables[0].Topic = "factory/line1/wc02/emco/values/+" // no publish to a wildcard
	rig := startRigWith(t, mc)
	if err := rig.client.Health(); err != nil {
		t.Fatalf("Health before any change: %v", err)
	}
	var err error
	eventually(t, 5*time.Second, "Health to report the ended loop", func() bool {
		rig.machine.Step()
		err = rig.client.Health()
		return err != nil
	})
	if !strings.Contains(err.Error(), "machine emco") {
		t.Errorf("Health = %v, want it to name the machine whose loop ended", err)
	}
	rig.client.Stop()
	if err := rig.client.Health(); err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Errorf("Health after Stop = %v", err)
	}
}

// decodeEncodePayload is the payload the bridge published for every change
// before it spliced: the value decoded into any, the sample JSON-encoded.
// nil when the encode fails (the sample was dropped).
func decodeEncodePayload(tmpl VariableSample, raw []byte) []byte {
	_ = json.Unmarshal(raw, &tmpl.Value)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tmpl); err != nil {
		return nil
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// bridgedPayload is the payload publishChange hands the broker for raw.
func bridgedPayload(t *testing.T, e *sampleEncoder, raw []byte) []byte {
	var got []byte
	capture := func(_ string, payload []byte, _ bool) error {
		got = append([]byte(nil), payload...)
		return nil
	}
	if _, err := new(BridgeClient).publishChange(capture, e, "t", raw, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

// FuzzBridgeSamplePayload: for any value bytes, the payload the bridge
// publishes is byte-identical to decoding them and encoding the sample.
func FuzzBridgeSamplePayload(f *testing.F) {
	for _, seed := range []string{
		`12.5`, `-0`, `0`, `1e21`, `1e+21`, `1e-7`, `1e-07`, `0.000001`, `123456789012345678901`,
		`1E5`, `01`, `-Inf`, `NaN`, `1e400`, `0x1p-2`, `true`, `null`, `"ok"`, `"<a>"`, `"é"`,
		`"a\"b"`, `{"a":1}`, `[1,2]`, ` 1`, ``,
	} {
		f.Add([]byte(seed))
	}
	e := newSampleEncoder(VariableSample{Machine: "emco<1>", Variable: "load&x", Category: "Axes", Type: "Double"})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if got, want := bridgedPayload(t, &e, raw), decodeEncodePayload(e.tmpl, raw); !bytes.Equal(got, want) {
			t.Fatalf("value %q: bridge published %q, decode and encode give %q", raw, got, want)
		}
	})
}

// TestBridgeSplicedPayloadAllocs: building and publishing the payload of a
// numeric change allocates nothing once the buffer has grown (margin 0:
// decoding and re-encoding cost 5 objects per change here).
func TestBridgeSplicedPayloadAllocs(t *testing.T) {
	e := newSampleEncoder(VariableSample{Machine: "emco", Variable: "load", Category: "Axes", Type: "Double"})
	b := new(BridgeClient)
	publish := func(string, []byte, bool) error { return nil }
	raw := []byte("1234.5625")
	buf, _ := b.publishChange(publish, &e, "t", raw, nil)
	if n := testing.AllocsPerRun(200, func() { buf, _ = b.publishChange(publish, &e, "t", raw, buf) }); n != 0 {
		t.Errorf("publishing a numeric change allocates %.1f objects, want 0", n)
	}
}

// TestBridgePayloadsMatchDecodeEncode drives values through a real OPC UA
// server, the bridge and a broker: every payload the broker delivers is
// byte for byte what decoding the value and encoding the sample gives,
// whether the bridge spliced the value bytes or not.
func TestBridgePayloadsMatchDecodeEncode(t *testing.T) {
	space := opcua.NewAddressSpace()
	machine := opcua.NewNodeID(1, "emco")
	if _, err := space.AddObject(space.Root(), machine, "emco", nil); err != nil {
		t.Fatal(err)
	}
	node := opcua.NewNodeID(1, "emco", "Axes", "load")
	if _, err := space.AddVariable(machine, node, "load", "Double", opcua.V(0.0), nil); err != nil {
		t.Fatal(err)
	}
	srv := opcua.NewServer("opcua-server-wc02", space)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	brk := broker.New()
	if err := brk.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	topic := "factory/line1/wc02/emco/values/Axes/load"
	_, ch, err := brk.Subscribe(topic)
	if err != nil {
		t.Fatal(err)
	}
	v := codegen.VarConfig{Name: "load<&>", Category: "Axes", Type: "Double", NodeID: string(node), Topic: topic}
	client := NewBridgeClient(codegen.ClientConfig{
		Name: "opcua-client-1",
		Machines: []codegen.ClientMachine{{
			Machine: "emco", Workcell: "wc02", Server: "opcua-server-wc02",
			Subscriptions: []codegen.VarConfig{v},
		}},
	}, func(string) (string, error) { return srv.Addr(), nil }, brk.Addr())
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer client.Stop() // Start returns with the machine subscribed

	tmpl := VariableSample{Machine: "emco", Variable: v.Name, Category: v.Category, Type: v.Type}
	for _, raw := range []string{
		`12.5`, `-0`, `1e-7`, `1e21`, `1E5`, `2.50`, `1e-07`, `123456789012345678901`, `1e400`,
		`42`, `-17`, `true`, `false`, `null`, `"running"`, `"a\"b"`, `"<b>&"`, `"é "`,
		`{"x":[1,2]}`, `not json`,
	} {
		if err := space.Write(node, opcua.Variant{Type: "Double", Value: json.RawMessage(raw)}); err != nil {
			t.Fatal(err)
		}
		want := decodeEncodePayload(tmpl, []byte(raw))
		select {
		case m := <-ch:
			if !bytes.Equal(m.Payload, want) {
				t.Errorf("value %s: broker delivered %s, decode and encode give %s", raw, m.Payload, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("value %s never reached the broker", raw)
		}
	}
}
