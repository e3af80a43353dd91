// Package stack implements the software components of the factory stack
// that the generated configuration deploys: the per-workcell OPC UA server
// (fed by machine drivers), the OPC UA client bridging servers to the
// message broker, and a thin wrapper around the historian. The simulated
// Kubernetes cluster in internal/deploy instantiates these components from
// the generated manifests, closing the loop from SysML model to running
// software.
package stack

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartfactory/sysml2conf/internal/codegen"
	"github.com/smartfactory/sysml2conf/internal/machinesim"
	"github.com/smartfactory/sysml2conf/internal/opcua"
	"github.com/smartfactory/sysml2conf/internal/resilience"
)

// EndpointResolver maps a modeled driver endpoint (the ip/ip_port attributes
// from the SysML model) to an actual dialable address. In production this is
// the identity; in the simulation it maps modeled plant IPs to the local
// machine emulators.
type EndpointResolver func(machine string, driver codegen.DriverConfig) (string, error)

// IdentityResolver dials exactly what the model says.
func IdentityResolver(_ string, driver codegen.DriverConfig) (string, error) {
	ip, _ := driver.Parameters["ip"].(string)
	port, ok := driver.Parameters["ip_port"]
	if ip == "" || !ok {
		return "", fmt.Errorf("stack: driver parameters lack ip/ip_port: %v", driver.Parameters)
	}
	return fmt.Sprintf("%v:%v", ip, port), nil
}

// MapResolver resolves machine names through a fixed table.
func MapResolver(addrs map[string]string) EndpointResolver {
	return func(machine string, _ codegen.DriverConfig) (string, error) {
		addr, ok := addrs[machine]
		if !ok {
			return "", fmt.Errorf("stack: no endpoint for machine %q", machine)
		}
		return addr, nil
	}
}

// MachineServer is the per-workcell OPC UA server component: it builds an
// address space mirroring the workcell's machines (one object per machine,
// one variable node per modeled variable, one method node per service),
// connects to each machine through its driver protocol, sweeps each
// machine's variables into the address space (one batched read per machine
// per poll period, each machine on its own goroutine) and proxies method
// calls.
type MachineServer struct {
	Config   codegen.ServerConfig
	Machines []codegen.MachineConfig

	Server *opcua.Server
	Space  *opcua.AddressSpace

	// ListenWrapper, when set before Start, decorates the OPC UA endpoint's
	// TCP listener (the fault-injection layer's interposition hook).
	ListenWrapper func(ln net.Listener) net.Listener

	resolver EndpointResolver
	poll     time.Duration

	pollers []*machinePoller // one per added machine; fixed once Start returns
	stopCh  chan struct{}
	wg      sync.WaitGroup

	polls      atomic.Uint64 // variables read
	errs       atomic.Uint64 // failed sweep cycles
	reconnects atomic.Uint64
}

// machinePoller owns one machine's driver connection: it sweeps the
// machine's variables into the address space on its own ticker, so a slow
// or dead machine delays nobody else, and redials behind the machine's
// circuit breaker.
type machinePoller struct {
	srv   *MachineServer
	mc    *codegen.MachineConfig
	names []string      // variable paths, in sweep order
	nodes []*opcua.Node // the variables' write handles, parallel to names
	br    *resilience.Breaker

	// conn is the live driver connection, nil while the machine is down.
	// The poller is its only writer while it runs; service calls load it.
	conn atomic.Pointer[machinesim.Conn]
}

// reconnectThreshold is the number of consecutive failed sweeps after which
// the driver circuit opens and the connection is torn down and redialed.
const reconnectThreshold = 3

// NewMachineServer builds the component; Start brings it up.
func NewMachineServer(cfg codegen.ServerConfig, machines []codegen.MachineConfig,
	resolver EndpointResolver, pollPeriod time.Duration) *MachineServer {
	if pollPeriod <= 0 {
		pollPeriod = 50 * time.Millisecond
	}
	return &MachineServer{
		Config:   cfg,
		Machines: machines,
		resolver: resolver,
		poll:     pollPeriod,
		stopCh:   make(chan struct{}),
	}
}

// Start connects the drivers, builds the address space and begins listening
// on addr ("127.0.0.1:0" for an ephemeral port) and polling.
func (s *MachineServer) Start(addr string) error {
	s.Space = opcua.NewAddressSpace()
	for i := range s.Machines {
		if err := s.addMachine(&s.Machines[i]); err != nil {
			s.Stop()
			return err
		}
	}
	s.Server = opcua.NewServer(s.Config.Name, s.Space)
	s.Server.ListenWrapper = s.ListenWrapper
	if err := s.Server.Listen(addr); err != nil {
		s.Stop()
		return err
	}
	for _, p := range s.pollers {
		s.wg.Add(1)
		go p.run()
	}
	return nil
}

// Addr returns the OPC UA endpoint address.
func (s *MachineServer) Addr() string {
	if s.Server == nil {
		return ""
	}
	return s.Server.Addr()
}

// ServerStats counts a machine server's poll loop over its lifetime.
type ServerStats struct {
	Polls      uint64 // variables read
	Errors     uint64 // failed sweep cycles (a failed cycle reads no variable)
	Reconnects uint64 // driver connections re-established
}

// Stats returns the server's poll-loop counters.
func (s *MachineServer) Stats() ServerStats {
	return ServerStats{Polls: s.polls.Load(), Errors: s.errs.Load(), Reconnects: s.reconnects.Load()}
}

// connect opens a machine's driver connection.
func (p *machinePoller) connect(timeout time.Duration) (*machinesim.Conn, error) {
	addr, err := p.srv.resolver(p.mc.Machine, p.mc.Driver)
	if err != nil {
		return nil, err
	}
	conn, err := machinesim.DialMachine(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("driver connection to %s (%s): %w", p.mc.Machine, addr, err)
	}
	return conn, nil
}

func (s *MachineServer) addMachine(mc *codegen.MachineConfig) error {
	// The circuit opens after reconnectThreshold consecutive failed sweeps
	// and allows a redial probe every few poll periods.
	p := &machinePoller{srv: s, mc: mc, br: resilience.NewBreaker(reconnectThreshold, 4*s.poll)}
	objID := opcua.NewNodeID(1, mc.Machine)
	if _, err := s.Space.AddObject(s.Space.Root(), objID, mc.Machine, map[string]string{
		"workcell": mc.Workcell, "driver": mc.Driver.Type, "protocol": mc.Driver.Protocol,
	}); err != nil {
		return err
	}
	for _, v := range mc.Variables {
		meta := map[string]string{"category": v.Category, "direction": v.Direction, "topic": v.Topic}
		node, err := s.Space.AddVariable(objID, opcua.NodeID(v.NodeID), v.Name, v.Type, opcua.V(nil), meta)
		if err != nil {
			return err
		}
		p.names = append(p.names, v.Path)
		p.nodes = append(p.nodes, node)
	}
	for _, m := range mc.Methods {
		m := m
		fn := func(args []opcua.Variant) ([]opcua.Variant, error) {
			return p.call(m, args)
		}
		meta := map[string]string{"requestTopic": m.RequestTopic, "responseTopic": m.ResponseTopic}
		if _, err := s.Space.AddMethod(objID, opcua.NodeID(m.NodeID), m.Name, fn, meta); err != nil {
			return err
		}
	}
	conn, err := p.connect(5 * time.Second)
	if err != nil {
		return fmt.Errorf("stack: server %s: %w", s.Config.Name, err)
	}
	switch err := conn.Prepare(p.names); {
	case err == nil:
		p.conn.Store(conn)
	case machinesim.IsServiceError(err):
		// The machine answered and refused the list: the configuration
		// names a variable the machine does not have. No redial heals that.
		conn.Close()
		return fmt.Errorf("stack: server %s: machine %s: prepare sweep: %w", s.Config.Name, mc.Machine, err)
	default:
		// The endpoint accepted the connection and then went quiet. That
		// is an outage, not a misconfiguration: come up without the
		// connection and let the poller redial behind the breaker.
		conn.Close()
	}
	s.pollers = append(s.pollers, p)
	return nil
}

// call proxies a method call over the machine's current driver connection.
func (p *machinePoller) call(m codegen.MethodConfig, args []opcua.Variant) ([]opcua.Variant, error) {
	conn := p.conn.Load()
	if conn == nil {
		return nil, fmt.Errorf("stack: no driver connection to %s", p.mc.Machine)
	}
	goArgs := make([]any, len(args))
	for i, a := range args {
		var v any
		_ = json.Unmarshal(a.Value, &v)
		goArgs[i] = v
	}
	results, err := conn.Call(m.Name, goArgs...)
	if err != nil {
		return nil, err
	}
	out := make([]opcua.Variant, len(results))
	for i, r := range results {
		out[i] = opcua.V(r)
	}
	return out, nil
}

func (p *machinePoller) run() {
	defer p.srv.wg.Done()
	ticker := time.NewTicker(p.srv.poll)
	defer ticker.Stop()
	for {
		select {
		case <-p.srv.stopCh:
			return
		case <-ticker.C:
			p.pollOnce()
		}
	}
}

// pollOnce is one cycle: sweep the machine and write what it returned
// through the node handles, or, while the machine is down, try a redial.
func (p *machinePoller) pollOnce() {
	conn := p.conn.Load()
	if conn == nil {
		p.tryReconnect()
		return
	}
	vals, err := conn.Sweep()
	if err != nil {
		p.srv.errs.Add(1)
		p.br.Failure()
		if p.br.State() == resilience.Open {
			// The circuit tripped: the connection is beyond suspicion.
			// Drop it; tryReconnect probes once the cooldown elapses.
			conn.Close()
			p.conn.Store(nil)
		}
		return
	}
	p.srv.polls.Add(uint64(len(vals)))
	p.br.Success()
	for i, raw := range vals {
		// The handles are variables and the sweep hands out scalars, so
		// WriteRaw has nothing to refuse.
		_ = p.nodes[i].WriteRaw(raw)
	}
}

// tryReconnect redials a machine whose driver connection was dropped. The
// circuit breaker paces probes (one per cooldown while the machine stays
// down); success closes the circuit and resumes sweeping transparently — a
// machine power-cycle heals without redeploying the server.
func (p *machinePoller) tryReconnect() {
	if !p.br.Allow() {
		return
	}
	conn, err := p.connect(time.Second)
	if err != nil {
		p.br.Failure()
		return
	}
	// A fresh connection has no prepared list; the prepare round trip
	// doubles as the liveness probe of the redial.
	if err := conn.Prepare(p.names); err != nil {
		conn.Close()
		p.br.Failure()
		return
	}
	p.br.Success()
	p.conn.Store(conn)
	p.srv.reconnects.Add(1)
}

// Health reports liveness: the component must not be stopped and its OPC UA
// endpoint must be accepting connections. A dead machine does NOT fail
// liveness — the server heals driver connections itself.
func (s *MachineServer) Health() error {
	select {
	case <-s.stopCh:
		return fmt.Errorf("stack: server %s: stopped", s.Config.Name)
	default:
	}
	if s.Server == nil {
		return fmt.Errorf("stack: server %s: not started", s.Config.Name)
	}
	return s.Server.Health()
}

// Ready reports readiness: Health plus a live driver connection to every
// configured machine. A server mid-redial serves stale values and is
// therefore alive but not ready.
func (s *MachineServer) Ready() error {
	if err := s.Health(); err != nil {
		return err
	}
	var missing []string
	for _, p := range s.pollers {
		if p.conn.Load() == nil {
			missing = append(missing, p.mc.Machine)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("stack: server %s: no driver connection to %v", s.Config.Name, missing)
	}
	return nil
}

// BreakerTrips returns how many times a machine's driver circuit opened
// (restart counters for the supervision layer's reporting).
func (s *MachineServer) BreakerTrips(machine string) uint64 {
	for _, p := range s.pollers {
		if p.mc.Machine == machine {
			return p.br.Trips()
		}
	}
	return 0
}

// Stop shuts the component down. Driver connections are closed before the
// pollers are awaited, so a sweep blocked on a stalled machine returns at
// once instead of holding Stop for its call timeout.
func (s *MachineServer) Stop() {
	select {
	case <-s.stopCh:
	default:
		close(s.stopCh)
	}
	s.closeConns()
	s.wg.Wait()
	s.closeConns() // a redial that completed while the pollers wound down
	if s.Server != nil {
		s.Server.Close()
	}
}

func (s *MachineServer) closeConns() {
	for _, p := range s.pollers {
		if conn := p.conn.Load(); conn != nil {
			conn.Close()
		}
	}
}
