package machinesim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

var emcoNames = []string{
	"AxesPositions/actualX",
	"SystemStatus/mode",
	"SystemStatus/cycleCount",
	"SystemStatus/doorClosed",
}

// TestSweepMatchesGet: a sweep returns, in list order, the bytes GET would
// have returned for each variable — json.Marshal's encoding of the value.
func TestSweepMatchesGet(t *testing.T) {
	m, c := startMachine(t)
	values := []any{1e-7, `say "hi", [ok]\`, 1e21, true}
	for i, name := range emcoNames {
		if err := m.Set(name, values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Prepare(emcoNames); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // the second sweep reuses the buffers
		vals, err := c.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(emcoNames) {
			t.Fatalf("sweep returned %d values, want %d", len(vals), len(emcoNames))
		}
		for i, raw := range vals {
			want, _ := json.Marshal(values[i])
			if !bytes.Equal(raw, want) {
				t.Errorf("%s = %s, want %s", emcoNames[i], raw, want)
			}
			got, err := c.Get(emcoNames[i])
			if err != nil {
				t.Fatal(err)
			}
			var decoded any
			if err := json.Unmarshal(raw, &decoded); err != nil || decoded != got {
				t.Errorf("%s: sweep %s decodes to %v (%v), Get says %v", emcoNames[i], raw, decoded, err, got)
			}
		}
	}
}

// TestPrepareLifecycle: the list is validated at prepare time, belongs to
// the connection, and a failed prepare leaves the earlier list bound.
func TestPrepareLifecycle(t *testing.T) {
	m, c := startMachine(t)
	if _, err := c.Sweep(); !IsServiceError(err) {
		t.Fatalf("sweep before prepare: err = %v, want a ServiceError", err)
	}
	if err := c.Prepare([]string{"SystemStatus/mode", "nope"}); !IsServiceError(err) || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("prepare with unknown variable: err = %v", err)
	}
	if err := c.Prepare(emcoNames[:2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare([]string{"nope"}); err == nil {
		t.Fatal("second prepare with unknown variable succeeded")
	}
	if vals, err := c.Sweep(); err != nil || len(vals) != 2 {
		t.Fatalf("sweep after failed re-prepare: %d values, err %v", len(vals), err)
	}
	// Another connection to the same machine has no list of its own.
	other, err := DialMachine(m.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Sweep(); !IsServiceError(err) {
		t.Fatalf("sweep on a fresh connection: err = %v, want a ServiceError", err)
	}
	// An empty list is a valid one: the sweep is then a liveness probe.
	if err := other.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	if vals, err := other.Sweep(); err != nil || len(vals) != 0 {
		t.Fatalf("empty sweep: %d values, err %v", len(vals), err)
	}
}

// TestSweepLongerThanReaderBuffer: a response line that overflows the
// driver's read buffer is still one sweep.
func TestSweepLongerThanReaderBuffer(t *testing.T) {
	m, c := startMachine(t)
	long := strings.Repeat("x", 10_000)
	if err := m.Set("SystemStatus/mode", long); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(emcoNames); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + long + `"`; string(vals[1]) != want {
		t.Errorf("long value came back as %d bytes, want %d", len(vals[1]), len(want))
	}
}

func TestSetRefusesNonScalars(t *testing.T) {
	m := New(emcoSpec())
	for _, v := range []any{[]int{1}, map[string]any{"a": 1}, make(chan int)} {
		if err := m.Set("SystemStatus/mode", v); err == nil {
			t.Errorf("Set(%T) succeeded", v)
		}
	}
	if got, _ := m.Get("SystemStatus/mode"); got != "idle" {
		t.Errorf("a refused Set changed the value to %v", got)
	}
}

// splitReference is what encoding/json makes of data as an array of
// scalars; ok is false when data is not one.
func splitReference(data []byte) (elems []json.RawMessage, ok bool) {
	if !json.Valid(data) || json.Unmarshal(data, &elems) != nil {
		return nil, false
	}
	if bytes.TrimLeft(data, " \t\r\n")[0] != '[' { // "null" unmarshals into a nil slice
		return nil, false
	}
	for _, e := range elems {
		if e[0] == '[' || e[0] == '{' {
			return nil, false
		}
	}
	return elems, true
}

var sweepSeeds = []string{
	`[]`, ` [ ] `, `[1]`, `[1,2.5,-0,-0.0,1e-7,1E+21,1e21]`, `[true,false,null]`,
	`["a","b,c","d]e","[","\"","\\","\\\"","é\n\t\/"]`, `[ 1 , "x" ,null ]`, "[\"\xff\"]",
	``, `[`, `]`, `[,]`, `[1,]`, `[1 2]`, `[01]`, `[1.]`, `[.5]`, `[1e]`, `[-]`, `[+1]`, `[tru]`, `[nul]`,
	`["]`, `["\x"]`, `["\u12"]`, "[\"\x01\"]", `[[1]]`, `[{}]`, `[1]x`, `1`, `null`, `"[1]"`, `{"a":[1]}`,
}

// FuzzSweepResponse: on every JSON array of scalars the splitter returns
// exactly the elements encoding/json returns; on anything else it returns
// an error, without panicking or reading out of bounds.
func FuzzSweepResponse(f *testing.F) {
	for _, s := range sweepSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// An exact-capacity copy, so a read past the end cannot land in
		// spare capacity unnoticed by the bounds check.
		data = append(make([]byte, 0, len(data)), data...)
		got, err := splitScalars(nil, data)
		want, ok := splitReference(data)
		if !ok {
			if err == nil {
				t.Fatalf("splitScalars(%q) = %q, want an error", data, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("splitScalars(%q): %v, want %q", data, err, want)
		}
		if len(got) != len(want) {
			t.Fatalf("splitScalars(%q) = %q, want %q", data, got, want)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("splitScalars(%q)[%d] = %q, want %q", data, i, got[i], want[i])
			}
		}
	})
}

// FuzzDispatch: no request line panics the emulator, whatever the session
// went through before it; every answer is one OK or ERR line.
func FuzzDispatch(f *testing.F) {
	for _, s := range []string{
		"PING", "LIST", "GET SystemStatus/mode", "GET", "SET SystemStatus/mode \"x\"", "SET SystemStatus/mode [1]",
		"CALL is_ready", "CALL is_ready [", "CALL nope []", "BOGUS", "", " ",
		"MGET", "mget", "MGET extra", "MPREP", "MPREP []", "MPREP null", "MPREP [", "MPREP {}", "MPREP [1]",
		`MPREP ["SystemStatus/mode"]`, `MPREP ["SystemStatus/mode","SystemStatus/mode"]`, `MPREP ["nope"]`,
		"MPREP [" + strings.Repeat(`"SystemStatus/mode",`, 500) + `"SystemStatus/mode"]`,
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	m := New(emcoSpec())
	f.Fuzz(func(t *testing.T, line string, prepared bool) {
		var sess session
		if prepared {
			if resp := m.dispatch(&sess, []byte(`MPREP ["SystemStatus/mode","AxesPositions/actualX"]`)); string(resp) != "OK 2" {
				t.Fatalf("prepare: %s", resp)
			}
		}
		for i := 0; i < 2; i++ { // twice: the second answer reuses the buffer
			resp := string(m.dispatch(&sess, []byte(line)))
			if !strings.HasPrefix(resp, "OK ") && !strings.HasPrefix(resp, "ERR ") {
				t.Fatalf("dispatch(%q) = %q", line, resp)
			}
			if strings.ContainsAny(resp, "\n") {
				t.Fatalf("dispatch(%q) answered more than one line: %q", line, resp)
			}
		}
		// Whatever the line did to the session, a sweep still answers.
		resp := string(m.dispatch(&sess, []byte("MGET")))
		if sess.prepared == nil {
			if resp != "ERR MGET before MPREP" {
				t.Fatalf("MGET without a list = %q", resp)
			}
			return
		}
		vals, err := splitScalars(nil, []byte(strings.TrimPrefix(resp, "OK ")))
		if err != nil || len(vals) != len(sess.prepared) {
			t.Fatalf("MGET = %q: %d values (%v), %d prepared", resp, len(vals), err, len(sess.prepared))
		}
	})
}
