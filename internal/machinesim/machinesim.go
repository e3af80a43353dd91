// Package machinesim emulates factory machinery behind proprietary-protocol
// TCP endpoints. Each simulated machine exposes the variables and services
// declared in its SysML v2 model over a simple line-based wire protocol —
// the stand-in for the vendor drivers (EMCO mill, UR5e cobot, Siemens PLC,
// ...) that the paper's drivers connect to. Variable values evolve over time
// according to per-type generators so that data actually flows through the
// generated software stack.
package machinesim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// VarSpec declares one machine variable.
type VarSpec struct {
	Name     string `json:"name"`     // slash-separated path, e.g. "AxesPositions/actualX"
	Type     string `json:"type"`     // Double, Integer, Boolean, String
	Category string `json:"category"` // grouping from the model, e.g. "AxesPositions"
}

// MethodSpec declares one machine service.
type MethodSpec struct {
	Name    string   `json:"name"`
	Args    []string `json:"args"`    // argument type names
	Returns []string `json:"returns"` // return type names
}

// Spec is the full interface of a simulated machine.
type Spec struct {
	Name    string       `json:"name"`
	Vars    []VarSpec    `json:"vars"`
	Methods []MethodSpec `json:"methods"`
}

// ServiceError is a machine-reported failure: the machine answered the
// request ("ERR ..." on the wire) but the service itself failed. Callers
// use it to separate application failures from transport failures — a
// ServiceError means the machine is alive (retrying elsewhere won't help),
// while any other error from Conn means the machine is unreachable and the
// caller should rebind or reconnect.
type ServiceError struct {
	Machine string // empty on the driver side (the wire doesn't carry it)
	Msg     string
}

func (e *ServiceError) Error() string {
	if e.Machine != "" {
		return fmt.Sprintf("machinesim %s: %s", e.Machine, e.Msg)
	}
	return e.Msg
}

// IsServiceError reports whether err is a machine-level (application)
// failure rather than a transport failure.
func IsServiceError(err error) bool {
	var se *ServiceError
	return errors.As(err, &se)
}

// Machine is a running emulator.
type Machine struct {
	// ListenWrapper, when set before Serve, decorates the TCP listener —
	// the hook the fault-injection layer uses to interpose on driver
	// connections.
	ListenWrapper func(net.Listener) net.Listener

	spec Spec

	mu        sync.RWMutex
	values    map[string]*variable
	calls     map[string]int        // per-method call counts
	faults    map[string]*callFault // per-method injected failures
	callDelay time.Duration         // simulated per-call work time
	tick      int
	busyUntil time.Time

	ln      net.Listener
	wg      sync.WaitGroup
	conns   map[net.Conn]struct{}
	closed  bool
	stopGen chan struct{}
}

// New creates a machine emulator from its spec with initial values.
func New(spec Spec) *Machine {
	m := &Machine{
		spec:    spec,
		values:  map[string]*variable{},
		calls:   map[string]int{},
		faults:  map[string]*callFault{},
		conns:   map[net.Conn]struct{}{},
		stopGen: make(chan struct{}),
	}
	for _, v := range spec.Vars {
		val := &variable{}
		val.mustSet(initialValue(v.Type))
		m.values[v.Name] = val
	}
	return m
}

// variable is one machine variable: its value and the value's wire form,
// encoded once per write so that reads (GET, MGET) only copy bytes.
type variable struct {
	value any
	enc   []byte // json.Marshal(value); replaced, never edited in place
}

// set stores value, rejecting what the wire cannot carry as one scalar.
func (v *variable) set(value any) error {
	enc, err := json.Marshal(value)
	if err != nil {
		return err
	}
	if enc[0] == '{' || enc[0] == '[' {
		return fmt.Errorf("value %s is not a scalar", enc)
	}
	v.value, v.enc = value, enc
	return nil
}

// mustSet stores a value the emulator made itself (an initial or generated
// one), which is always an encodable scalar.
func (v *variable) mustSet(value any) {
	if err := v.set(value); err != nil {
		panic("machinesim: " + err.Error())
	}
}

// Spec returns the machine's declared interface.
func (m *Machine) Spec() Spec { return m.spec }

func initialValue(typ string) any {
	switch typ {
	case "Double", "Real", "Float":
		return 0.0
	case "Integer", "Int64", "Natural", "Positive":
		return float64(0) // JSON numbers; kept numeric
	case "Boolean":
		return false
	default:
		return "idle"
	}
}

// Step advances the simulation one tick: every variable gets a new value
// from its per-type generator. Deterministic given the tick counter.
func (m *Machine) Step() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	t := float64(m.tick)
	for i, v := range m.spec.Vars {
		phase := float64(i+1) * 0.7
		var next any
		switch v.Type {
		case "Double", "Real", "Float":
			next = math.Round((50+40*math.Sin(t/10+phase))*1000) / 1000
		case "Integer", "Int64", "Natural", "Positive":
			next = float64((m.tick + i) % 1000)
		case "Boolean":
			next = (m.tick+i)%7 < 5
		default:
			states := []string{"idle", "running", "paused", "completed"}
			next = states[(m.tick/4+i)%len(states)]
		}
		m.values[v.Name].mustSet(next)
	}
}

// StartGenerator steps the machine on a fixed period until Close.
func (m *Machine) StartGenerator(period time.Duration) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				m.Step()
			case <-m.stopGen:
				return
			}
		}
	}()
}

// Get reads a variable.
func (m *Machine) Get(name string) (any, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.values[name]
	if !ok {
		return nil, fmt.Errorf("machinesim %s: unknown variable %q", m.spec.Name, name)
	}
	return v.value, nil
}

// Set writes a variable (used by control paths and tests). Variables hold
// scalars: a value JSON encodes as an object or array, or not at all, is
// refused.
func (m *Machine) Set(name string, value any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.values[name]
	if !ok {
		return fmt.Errorf("machinesim %s: unknown variable %q", m.spec.Name, name)
	}
	if err := v.set(value); err != nil {
		return fmt.Errorf("machinesim %s: variable %q: %w", m.spec.Name, name, err)
	}
	return nil
}

// callFault is an injected per-method failure budget (see FailNextCalls).
type callFault struct {
	msg string
	n   int
}

// FailNextCalls makes the next n invocations of method fail with a
// ServiceError carrying msg. The machine still answers the request — on
// the wire the reply is "ERR msg" — so drivers observe an application
// failure, not a transport failure. Fault-injection hook for tests.
func (m *Machine) FailNextCalls(method, msg string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		delete(m.faults, method)
		return
	}
	m.faults[method] = &callFault{msg: msg, n: n}
}

// SetCallDelay makes every service call take at least d — simulated work
// time, so campaigns span wall-clock time proportional to their step
// count instead of completing at wire speed.
func (m *Machine) SetCallDelay(d time.Duration) {
	m.mu.Lock()
	m.callDelay = d
	m.mu.Unlock()
}

// Call invokes a machine service. Built-in semantics: every machine
// answers is_ready (busy after any other call for 50 ms), start_program /
// stop / reset mark state transitions, and anything else declared in the
// spec echoes success with its call count. Failures injected with
// FailNextCalls surface as *ServiceError.
func (m *Machine) Call(name string, args []any) ([]any, error) {
	m.mu.RLock()
	delay := m.callDelay
	m.mu.RUnlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	var spec *MethodSpec
	for i := range m.spec.Methods {
		if m.spec.Methods[i].Name == name {
			spec = &m.spec.Methods[i]
			break
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("machinesim %s: unknown method %q", m.spec.Name, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls[name]++
	if f := m.faults[name]; f != nil {
		f.n--
		if f.n <= 0 {
			delete(m.faults, name)
		}
		return nil, &ServiceError{Machine: m.spec.Name, Msg: f.msg}
	}
	now := time.Now()
	switch {
	case name == "is_ready" || name == "isReady":
		return []any{now.After(m.busyUntil)}, nil
	case strings.HasPrefix(name, "start") || strings.HasPrefix(name, "run") || strings.HasPrefix(name, "execute"):
		m.busyUntil = now.Add(50 * time.Millisecond)
		return []any{true}, nil
	case name == "stop" || name == "reset" || name == "abort":
		m.busyUntil = now
		return []any{true}, nil
	}
	out := make([]any, 0, len(spec.Returns))
	for _, rt := range spec.Returns {
		switch rt {
		case "Boolean":
			out = append(out, true)
		case "Double", "Real", "Float", "Integer":
			out = append(out, float64(m.calls[name]))
		default:
			out = append(out, fmt.Sprintf("%s:ok:%d", name, m.calls[name]))
		}
	}
	return out, nil
}

// CallCount returns how many times a method has been invoked.
func (m *Machine) CallCount(name string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.calls[name]
}

// ---------------------------------------------------------------------------
// Wire protocol
//
// Line-based, JSON-armored. Each request is one line:
//
//	GET <var>
//	SET <var> <json>
//	CALL <method> <json-array-args>
//	LIST
//	PING
//	MPREP <json-array-of-var-names>
//	MGET
//
// and each response one line: "OK <json>" or "ERR <message>". Command words
// are case-insensitive; a variable's value is always one JSON scalar.
//
// MPREP and MGET are the driver's sweep: "read all my variables" in one
// frame each way. MPREP validates the name list once and binds it to the
// connection (an unknown name fails the whole list; a later MPREP replaces
// it; the binding dies with the connection). It answers "OK <n>". MGET
// answers "OK [v1,...,vn]", the prepared variables' values in list order,
// each encoded exactly as GET encodes it and all read under one lock, so a
// sweep is a consistent snapshot of the machine. MGET before any MPREP is
// an error.

// Serve binds the machine's TCP endpoint (port 0 picks a free port).
func (m *Machine) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("machinesim %s: listen: %w", m.spec.Name, err)
	}
	if m.ListenWrapper != nil {
		ln = m.ListenWrapper(ln)
	}
	m.mu.Lock()
	m.ln = ln
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				conn.Close()
				return
			}
			m.conns[conn] = struct{}{}
			m.mu.Unlock()
			m.wg.Add(1)
			go m.handle(conn)
		}
	}()
	return nil
}

// Addr returns the bound address ("" before Serve).
func (m *Machine) Addr() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Close stops the generator, listener and connections.
func (m *Machine) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.stopGen)
	ln := m.ln
	for c := range m.conns {
		c.Close()
	}
	m.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	m.wg.Wait()
	return err
}

func (m *Machine) handle(conn net.Conn) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		delete(m.conns, conn)
		m.mu.Unlock()
		conn.Close()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var sess session
	for scanner.Scan() {
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		sess.out = append(m.dispatch(&sess, line), '\n')
		if _, err := conn.Write(sess.out); err != nil {
			return
		}
	}
}

// session is the per-connection protocol state.
type session struct {
	prepared []*variable // MPREP's list, resolved once; nil before any MPREP
	out      []byte      // response buffer, reused across requests
}

// dispatch answers one request line. The response (without its newline) is
// built in the session's buffer and is valid until the next dispatch.
func (m *Machine) dispatch(sess *session, line []byte) []byte {
	out := sess.out[:0]
	if string(line) == "MGET" { // the hot request: no string conversion, no switch
		return m.sweep(sess, out)
	}
	cmd, rest, _ := strings.Cut(string(line), " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToUpper(cmd) {
	case "PING":
		return append(out, `OK "pong"`...)
	case "LIST":
		data, err := json.Marshal(m.spec)
		if err != nil {
			return append(append(out, "ERR "...), err.Error()...)
		}
		return append(append(out, "OK "...), data...)
	case "GET":
		m.mu.RLock()
		defer m.mu.RUnlock()
		v, ok := m.values[rest]
		if !ok {
			return fmt.Appendf(out, "ERR machinesim %s: unknown variable %q", m.spec.Name, rest)
		}
		return append(append(out, "OK "...), v.enc...)
	case "SET":
		name, valStr, ok := strings.Cut(rest, " ")
		if !ok {
			return append(out, "ERR SET requires variable and value"...)
		}
		var v any
		if err := json.Unmarshal([]byte(valStr), &v); err != nil {
			return append(append(out, "ERR invalid JSON value: "...), err.Error()...)
		}
		if err := m.Set(name, v); err != nil {
			return append(append(out, "ERR "...), err.Error()...)
		}
		return append(out, "OK true"...)
	case "CALL":
		name, argStr, _ := strings.Cut(rest, " ")
		var args []any
		if strings.TrimSpace(argStr) != "" {
			if err := json.Unmarshal([]byte(argStr), &args); err != nil {
				return append(append(out, "ERR invalid JSON args: "...), err.Error()...)
			}
		}
		results, err := m.Call(name, args)
		if err != nil {
			return append(append(out, "ERR "...), err.Error()...)
		}
		data, _ := json.Marshal(results)
		return append(append(out, "OK "...), data...)
	case "MPREP":
		var names []string
		if err := json.Unmarshal([]byte(rest), &names); err != nil {
			return append(append(out, "ERR invalid JSON name list: "...), err.Error()...)
		}
		prepared := make([]*variable, len(names))
		m.mu.RLock()
		defer m.mu.RUnlock()
		// A list may repeat a name but not outgrow the machine: the bound
		// keeps one MGET response proportional to the machine's own state.
		if len(names) > len(m.values) {
			return fmt.Appendf(out, "ERR MPREP lists %d names, machine has %d variables", len(names), len(m.values))
		}
		for i, name := range names {
			v, ok := m.values[name]
			if !ok {
				return fmt.Appendf(out, "ERR machinesim %s: unknown variable %q", m.spec.Name, name)
			}
			prepared[i] = v
		}
		sess.prepared = prepared
		return strconv.AppendInt(append(out, "OK "...), int64(len(prepared)), 10)
	case "MGET":
		return m.sweep(sess, out)
	default:
		return fmt.Appendf(out, "ERR unknown command %q", cmd)
	}
}

// sweep answers MGET: the prepared variables' encoded values, copied under
// one read lock.
func (m *Machine) sweep(sess *session, out []byte) []byte {
	if sess.prepared == nil {
		return append(out, "ERR MGET before MPREP"...)
	}
	out = append(out, "OK ["...)
	m.mu.RLock()
	for i, v := range sess.prepared {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, v.enc...)
	}
	m.mu.RUnlock()
	return append(out, ']')
}

// ---------------------------------------------------------------------------
// Protocol client (the "driver" side)

// DefaultCallTimeout bounds each driver-side round trip when the caller
// does not configure one: a hung or partitioned machine server fails the
// call instead of blocking the driver forever.
const DefaultCallTimeout = 3 * time.Second

// Conn is a driver-side connection to a simulated machine. Calls are
// serialized (one request in flight per connection, like the real vendor
// protocols) and each round trip is bounded by the call timeout.
type Conn struct {
	conn    net.Conn
	r       *bufio.Reader
	mu      sync.Mutex
	timeout time.Duration
	line    []byte // response buffer of roundTrip, reused under mu

	// Sweep state (sweep.go). The sweep has buffers of its own because its
	// result outlives the lock, while other calls share the connection.
	prepared  int      // length of the list Prepare bound
	sweepLine []byte   // response buffer of Sweep
	vals      [][]byte // Sweep's result, slices of sweepLine
}

// DialMachine connects to a machine endpoint. timeout bounds the dial;
// per-call round trips default to DefaultCallTimeout (SetCallTimeout
// adjusts it).
func DialMachine(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("machinesim driver: dial %s: %w", addr, err)
	}
	return &Conn{conn: c, r: bufio.NewReader(c), timeout: DefaultCallTimeout}, nil
}

// SetCallTimeout bounds every subsequent round trip on this connection.
// d <= 0 disables the deadline (the pre-deadline blocking behavior).
func (c *Conn) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// Close drops the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// exchange sends one request line and reads the response line into *buf
// (reusing its storage), returning the body after "OK ". The body aliases
// *buf. Callers hold c.mu.
func (c *Conn) exchange(req []byte, buf *[]byte) ([]byte, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	*buf = (*buf)[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		*buf = append(*buf, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull { // a line longer than the reader's buffer continues
			return nil, err
		}
	}
	resp := bytes.TrimSpace(*buf)
	if body, ok := bytes.CutPrefix(resp, []byte("OK ")); ok {
		return body, nil
	}
	if msg, ok := bytes.CutPrefix(resp, []byte("ERR ")); ok {
		// The machine answered: an application failure, not a transport one.
		return nil, &ServiceError{Msg: string(msg)}
	}
	return nil, fmt.Errorf("machinesim driver: malformed response %q", resp)
}

func (c *Conn) roundTrip(line string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.exchange([]byte(line+"\n"), &c.line)
	return string(body), err
}

// Ping checks liveness.
func (c *Conn) Ping() error {
	_, err := c.roundTrip("PING")
	return err
}

// List fetches the machine's spec.
func (c *Conn) List() (Spec, error) {
	body, err := c.roundTrip("LIST")
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Get reads one variable.
func (c *Conn) Get(name string) (any, error) {
	body, err := c.roundTrip("GET " + name)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		return nil, err
	}
	return v, nil
}

// Set writes one variable.
func (c *Conn) Set(name string, value any) error {
	data, err := json.Marshal(value)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(fmt.Sprintf("SET %s %s", name, data))
	return err
}

// Call invokes a machine method.
func (c *Conn) Call(name string, args ...any) ([]any, error) {
	line := "CALL " + name
	if len(args) > 0 {
		data, err := json.Marshal(args)
		if err != nil {
			return nil, err
		}
		line += " " + string(data)
	}
	body, err := c.roundTrip(line)
	if err != nil {
		return nil, err
	}
	var out []any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fleet helper

// Fleet runs a set of machines and tracks their endpoints by name.
type Fleet struct {
	// WrapListener, when set before Start, decorates each machine's TCP
	// listener keyed by machine name (fault-injection hook).
	WrapListener func(name string, ln net.Listener) net.Listener

	mu       sync.Mutex
	machines map[string]*Machine
}

// NewFleet creates an empty fleet.
func NewFleet() *Fleet { return &Fleet{machines: map[string]*Machine{}} }

// Start launches a machine on a free port with a value generator.
func (f *Fleet) Start(spec Spec, genPeriod time.Duration) (*Machine, error) {
	m := New(spec)
	if f.WrapListener != nil {
		name := spec.Name
		m.ListenWrapper = func(ln net.Listener) net.Listener {
			return f.WrapListener(name, ln)
		}
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if genPeriod > 0 {
		m.StartGenerator(genPeriod)
	}
	f.mu.Lock()
	f.machines[spec.Name] = m
	f.mu.Unlock()
	return m, nil
}

// Machine fetches a running machine by name.
func (f *Fleet) Machine(name string) *Machine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.machines[name]
}

// Addrs returns name -> endpoint for all running machines.
func (f *Fleet) Addrs() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]string{}
	for name, m := range f.machines {
		out[name] = m.Addr()
	}
	return out
}

// Names lists machine names, sorted.
func (f *Fleet) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for name := range f.machines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close stops every machine.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var firstErr error
	for _, m := range f.machines {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
