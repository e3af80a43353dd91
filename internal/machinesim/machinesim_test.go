package machinesim

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func emcoSpec() Spec {
	return Spec{
		Name: "emco",
		Vars: []VarSpec{
			{Name: "AxesPositions/actualX", Type: "Double", Category: "AxesPositions"},
			{Name: "AxesPositions/actualY", Type: "Double", Category: "AxesPositions"},
			{Name: "SystemStatus/mode", Type: "String", Category: "SystemStatus"},
			{Name: "SystemStatus/cycleCount", Type: "Integer", Category: "SystemStatus"},
			{Name: "SystemStatus/doorClosed", Type: "Boolean", Category: "SystemStatus"},
		},
		Methods: []MethodSpec{
			{Name: "is_ready", Returns: []string{"Boolean"}},
			{Name: "start_program", Args: []string{"String"}, Returns: []string{"Boolean"}},
			{Name: "stop", Returns: []string{"Boolean"}},
			{Name: "get_tool", Returns: []string{"String"}},
		},
	}
}

func startMachine(t *testing.T) (*Machine, *Conn) {
	t.Helper()
	m := New(emcoSpec())
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	c, err := DialMachine(m.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return m, c
}

func TestInitialValuesByType(t *testing.T) {
	m := New(emcoSpec())
	cases := map[string]any{
		"AxesPositions/actualX":   0.0,
		"SystemStatus/mode":       "idle",
		"SystemStatus/cycleCount": float64(0),
		"SystemStatus/doorClosed": false,
	}
	for name, want := range cases {
		got, err := m.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s = %v (%T), want %v", name, got, got, want)
		}
	}
}

func TestStepChangesValues(t *testing.T) {
	m := New(emcoSpec())
	before, _ := m.Get("AxesPositions/actualX")
	m.Step()
	after, _ := m.Get("AxesPositions/actualX")
	if before == after {
		t.Errorf("Step did not change actualX (%v)", after)
	}
	// Deterministic: same tick count gives same values for two machines.
	m2 := New(emcoSpec())
	m2.Step()
	v1, _ := m.Get("AxesPositions/actualX")
	v2, _ := m2.Get("AxesPositions/actualX")
	if v1 != v2 {
		t.Errorf("generators not deterministic: %v vs %v", v1, v2)
	}
}

func TestProtocolGetSet(t *testing.T) {
	_, c := startMachine(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("SystemStatus/mode", "running"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("SystemStatus/mode")
	if err != nil {
		t.Fatal(err)
	}
	if v != "running" {
		t.Errorf("mode = %v", v)
	}
	if _, err := c.Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown variable") {
		t.Errorf("err = %v", err)
	}
}

func TestProtocolList(t *testing.T) {
	_, c := startMachine(t)
	spec, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "emco" || len(spec.Vars) != 5 || len(spec.Methods) != 4 {
		t.Errorf("spec = %+v", spec)
	}
}

func TestProtocolCallSemantics(t *testing.T) {
	m, c := startMachine(t)
	// Initially ready.
	out, err := c.Call("is_ready")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != true {
		t.Errorf("is_ready = %v", out)
	}
	// start_program makes it busy for a moment.
	if _, err := c.Call("start_program", "path/program/file"); err != nil {
		t.Fatal(err)
	}
	out, _ = c.Call("is_ready")
	if out[0] != false {
		t.Errorf("is_ready right after start = %v, want false", out)
	}
	// stop readies it again.
	if _, err := c.Call("stop"); err != nil {
		t.Fatal(err)
	}
	out, _ = c.Call("is_ready")
	if out[0] != true {
		t.Errorf("is_ready after stop = %v, want true", out)
	}
	if m.CallCount("is_ready") != 3 {
		t.Errorf("call count = %d, want 3", m.CallCount("is_ready"))
	}
	// Generic method returns typed results.
	out, err = c.Call("get_tool")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("get_tool = %v", out)
	}
	if s, ok := out[0].(string); !ok || !strings.HasPrefix(s, "get_tool:ok:") {
		t.Errorf("get_tool = %v", out)
	}
	if _, err := c.Call("no_such"); err == nil {
		t.Error("want error for unknown method")
	}
}

func TestGeneratorUpdatesOverWire(t *testing.T) {
	m := New(emcoSpec())
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StartGenerator(5 * time.Millisecond)
	c, err := DialMachine(m.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, _ := c.Get("AxesPositions/actualX")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		cur, err := c.Get("AxesPositions/actualX")
		if err != nil {
			t.Fatal(err)
		}
		if cur != first {
			return // value moved
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("generator never changed actualX")
}

func TestFleet(t *testing.T) {
	f := NewFleet()
	defer f.Close()
	if _, err := f.Start(emcoSpec(), 0); err != nil {
		t.Fatal(err)
	}
	ur5 := emcoSpec()
	ur5.Name = "ur5"
	if _, err := f.Start(ur5, 0); err != nil {
		t.Fatal(err)
	}
	names := f.Names()
	if len(names) != 2 || names[0] != "emco" || names[1] != "ur5" {
		t.Errorf("names = %v", names)
	}
	addrs := f.Addrs()
	for name, addr := range addrs {
		c, err := DialMachine(addr, time.Second)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		if err := c.Ping(); err != nil {
			t.Errorf("ping %s: %v", name, err)
		}
		c.Close()
	}
	if f.Machine("emco") == nil || f.Machine("ghost") != nil {
		t.Error("Machine lookup wrong")
	}
}

func TestMalformedProtocolLines(t *testing.T) {
	m, _ := startMachine(t)
	for line, wantPrefix := range map[string]string{
		"BOGUS":                     "ERR",
		"SET onlyname":              "ERR",
		"SET x {notjson":            "ERR",
		"CALL is_ready [bad":        "ERR",
		"GET missing":               "ERR",
		"PING":                      "OK",
		"MGET":                      "ERR", // nothing prepared on this session
		"MPREP {notjson":            "ERR",
		`MPREP ["missing"]`:         "ERR",
		"SET SystemStatus/mode [1]": "ERR", // variables hold scalars
	} {
		resp := string(m.dispatch(&session{}, []byte(line)))
		if !strings.HasPrefix(resp, wantPrefix) {
			t.Errorf("dispatch(%q) = %q, want prefix %q", line, resp, wantPrefix)
		}
	}
}

// TestCallDeadlineOnHungServer is the regression test for the driver-side
// call deadline: a server that accepts connections but never answers must
// fail the call within the configured timeout instead of blocking forever.
func TestCallDeadlineOnHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Read and discard forever; never reply.
			go func() {
				buf := make([]byte, 256)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := DialMachine(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(150 * time.Millisecond)

	start := time.Now()
	_, err = c.Call("is_ready")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a hung server must fail")
	}
	if IsServiceError(err) {
		t.Fatalf("deadline expiry must look like a transport failure, got ServiceError %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a net timeout error, got %T %v", err, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("call blocked %v despite a 150ms deadline", elapsed)
	}
}

// TestServiceErrorTyped verifies the driver can tell an application
// failure (the machine answered "ERR") from a transport failure: the
// former surfaces as *ServiceError, the latter does not.
func TestServiceErrorTyped(t *testing.T) {
	m, c := startMachine(t)

	// Unknown method: the machine answers ERR — an application failure.
	_, err := c.Call("no_such_method")
	if !IsServiceError(err) {
		t.Fatalf("ERR reply should be a ServiceError, got %T %v", err, err)
	}

	// Injected call fault: still a ServiceError, with the injected message.
	m.FailNextCalls("get_tool", "gripper jammed", 1)
	_, err = c.Call("get_tool")
	var se *ServiceError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "gripper jammed") {
		t.Fatalf("injected fault should be a ServiceError carrying the message, got %v", err)
	}
	// The budget is consumed: the next call succeeds.
	if _, err := c.Call("get_tool"); err != nil {
		t.Fatalf("fault budget exhausted, call should succeed: %v", err)
	}

	// Server-side, Call returns the typed error directly too.
	m.FailNextCalls("get_tool", "jam", 2)
	if _, err := m.Call("get_tool", nil); !IsServiceError(err) {
		t.Fatalf("server-side injected fault should be ServiceError, got %v", err)
	}
	m.FailNextCalls("get_tool", "", 0) // clear the remaining budget
	if _, err := m.Call("get_tool", nil); err != nil {
		t.Fatalf("cleared fault should not fire: %v", err)
	}

	// Transport failure (machine gone) is NOT a ServiceError.
	m.Close()
	_, err = c.Call("get_tool")
	if err == nil || IsServiceError(err) {
		t.Fatalf("closed machine should yield a transport error, got %v", err)
	}
}
