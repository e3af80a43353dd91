package opcua

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// TestOpcuaBinaryBrowse: browse responses carry the NodeInfo blob — the one
// structured field the codec embeds as JSON — across the wire intact.
func TestOpcuaBinaryBrowse(t *testing.T) {
	space := NewAddressSpace()
	obj := NewNodeID(1, "EMCO")
	if _, err := space.AddObject(space.Root(), obj, "EMCO", nil); err != nil {
		t.Fatal(err)
	}
	v := NewNodeID(1, "EMCO", "actualX")
	if _, err := space.AddVariable(obj, v, "actualX", "Double", V(1.5), map[string]string{"category": "AxesPositions"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer("browse-server", space)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, err := c.Browse(obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Children) != 1 || info.Children[0] != v {
		t.Errorf("browse children = %v", info.Children)
	}
	leaf, err := c.Browse(v)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Metadata["category"] != "AxesPositions" {
		t.Errorf("browse metadata = %v", leaf.Metadata)
	}
}

// TestServerRefusesNonFrame: bytes that do not open with the frame magic —
// here a length-prefixed JSON frame — get no answer; the server closes the
// connection.
func TestServerRefusesNonFrame(t *testing.T) {
	srv, _ := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0, 0, 2, '{', '}'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after a non-frame (read % x)", got)
	}
	if len(got) != 0 {
		t.Errorf("server answered a non-frame with % x", got)
	}
}

// callBody is a call request body up to (not including) its args count.
func callBody() []byte {
	return (&Message{ID: 1, Op: OpCall}).AppendBinaryBody(nil)[:7]
}

// TestDecodeVariantsRefusesCountAboveLimit: a variant count above
// maxVariants fails the decode — whether the body carries the variants or
// not — instead of decoding as an empty argument list.
func TestDecodeVariantsRefusesCountAboveLimit(t *testing.T) {
	empty := binary.AppendUvarint(callBody(), maxVariants+1)
	empty = append(empty, 0) // results count
	var m Message
	if err := m.DecodeBinaryBody(mopCall, empty); err == nil {
		t.Errorf("call claiming %d args and carrying none decoded: %d args", maxVariants+1, len(m.Args))
	}
	carried := binary.AppendUvarint(callBody(), maxVariants+1)
	carried = append(carried, make([]byte, minVariantSize*(maxVariants+1))...)
	carried = append(carried, 0)
	if err := m.DecodeBinaryBody(mopCall, carried); err == nil {
		t.Errorf("call carrying %d args decoded past the limit", maxVariants+1)
	}
}

// TestDecodeVariantsBoundsCountByBody: a count the body cannot hold fails
// before anything is sized from it — a 10-byte body claiming 65 536 args
// must not allocate 65 536 Variants on its way to "truncated".
func TestDecodeVariantsBoundsCountByBody(t *testing.T) {
	body := binary.AppendUvarint(callBody(), maxVariants)
	if len(body) != 10 {
		t.Fatalf("body is %d bytes, want 10", len(body))
	}
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Message
		err := m.DecodeBinaryBody(mopCall, body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("truncated call body decoded")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("decoding a 10-byte body allocated %d bytes", least)
	}
}

// subscribeBody is a subscribe request body up to its node list, whose count
// claims n nodes and which carries none.
func subscribeBody(n uint64) []byte {
	body := (&Message{ID: 1, Op: OpSubscribe}).AppendBinaryBody(nil)[:7]
	body = append(body, 0, 0) // no args, no results
	return binary.AppendUvarint(body, n)
}

// TestDecodeNodeIDsBoundsCount: a subscribe list's count is bounded like a
// variant count — by what the body can hold before anything is sized from
// it, and by maxNodeIDs whatever the body holds.
func TestDecodeNodeIDsBoundsCount(t *testing.T) {
	body := subscribeBody(maxNodeIDs)
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Message
		err := m.DecodeBinaryBody(mopSubscribe, body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("truncated subscribe body decoded")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("decoding a %d-byte body allocated %d bytes", len(body), least)
	}
	// Two zero bytes are an ID that shares nothing and adds nothing.
	carried := append(subscribeBody(maxNodeIDs+1), make([]byte, 2*(maxNodeIDs+1))...)
	var m Message
	if err := m.DecodeBinaryBody(mopSubscribe, carried); err == nil {
		t.Errorf("subscribe carrying %d node IDs decoded past the limit", maxNodeIDs+1)
	}
}

// TestNodeIDListFrontCoding: a subscribe list sends each ID as the length
// of the prefix it shares with the previous one and the rest, decodes to
// the list it was, and a prefix longer than the previous ID is refused.
func TestNodeIDListFrontCoding(t *testing.T) {
	list := &Message{ID: 2, Op: OpSubscribe, NodeIDs: []NodeID{"ns=1;s=M/a/x", "ns=1;s=M/a/y", "", "ns=1;s=M/b", "ns=1;s=M/b", "ns=1;s=M"}}
	body := list.AppendBinaryBody(nil)
	var m Message
	if err := m.DecodeBinaryBody(mopSubscribe, body); err != nil || !sameMessage(&m, list) {
		t.Errorf("list round trip: %+v, %v", m, err)
	}
	// The second ID is sent as "y" behind the 11 bytes it shares.
	if !bytes.Contains(body, []byte{11, 1, 'y'}) {
		t.Errorf("list body % x does not front-code its second ID", body)
	}
	bad := append(subscribeBody(2), 0, 1, 'a', 2, 1, 'b')
	if err := m.DecodeBinaryBody(mopSubscribe, bad); err == nil {
		t.Errorf("a 2-byte prefix of a 1-byte ID decoded: %v", m.NodeIDs)
	}
	growing := growingSubscribeBody(4000)
	if err := m.DecodeBinaryBody(mopSubscribe, growing); err == nil {
		t.Errorf("a %d-byte body expanded to %d node IDs", len(growing), len(m.NodeIDs))
	}
}

// growingSubscribeBody is a subscribe body of n IDs, each the whole
// previous one plus a byte: 4 000 of them take ~16 KB and would expand to
// 8 MB.
func growingSubscribeBody(n int) []byte {
	body := subscribeBody(uint64(n))
	for i := 0; i < n; i++ {
		body = append(binary.AppendUvarint(body, uint64(i)), 1, 'x')
	}
	return body
}

// fuzzSeedMessages covers every op and every optional field.
func fuzzSeedMessages() []*Message {
	v := V(12.5)
	return []*Message{
		{ID: 1, Op: OpHello},
		{ID: 1, Op: OpHello, OK: true, Endpoint: "srv"},
		{ID: 2, Op: OpRead, NodeID: "ns=1;s=M.x", OK: true, Value: &v},
		{ID: 3, Op: OpCall, NodeID: "ns=1;s=M.go", Args: []Variant{V("a"), V(1)}},
		{ID: 3, Op: OpCall, OK: true, Results: []Variant{V(true)}},
		{ID: 4, Op: OpBrowse, OK: true, Node: &NodeInfo{ID: "ns=1;s=M", Class: "Object", Metadata: map[string]string{"k": "v"}, Children: []NodeID{"ns=1;s=M.x"}}},
		{ID: 5, Op: OpSubscribe, NodeIDs: []NodeID{"ns=1;s=M.x", "ns=1;s=M.y", "ns=1;s=M.z"}},
		{ID: 5, Op: OpSubscribe, OK: true, SubID: 9}, // the list's items are 9, 10, 11
		{Op: OpNotify, NodeID: "ns=1;s=M.x", Value: &v, SubID: 9, Seq: 4, OK: true},
		{ID: 6, Op: OpWrite, OK: false, Error: "no such node"},
	}
}

// FuzzOpcuaFrameDecode throws corrupt, truncated and oversized streams at
// the frame reader and the OPC UA message codec: never a panic, a stream
// that does not open with the magic is refused, and no decoded message
// holds more variants than its bytes could carry.
func FuzzOpcuaFrameDecode(f *testing.F) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for _, m := range fuzzSeedMessages() {
		_ = w.WriteFrame(m)
	}
	_ = w.Flush()
	stream := buf.Bytes()
	f.Add(stream)
	f.Add(stream[:len(stream)-3])                           // truncated tail
	f.Add([]byte{wire.Magic, 99, mopRead, 0, 0})            // bad version
	f.Add([]byte{wire.Magic, wire.BinaryVersion, 42, 0, 0}) // unknown op
	f.Add([]byte{0, 0, 0, 2, '{', '}'})                     // legacy JSON frame: must be refused
	f.Add(append([]byte{wire.Magic, wire.BinaryVersion, mopCall, 0, 10}, binary.AppendUvarint(callBody(), maxVariants)...))
	f.Add(append([]byte{wire.Magic, wire.BinaryVersion, mopSubscribe, 0, 12}, subscribeBody(maxNodeIDs)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var m Message
			err := r.ReadFrame(&m)
			if i == 0 && len(data) > 0 && data[0] != wire.Magic && err == nil {
				t.Fatalf("stream opening with %#x decoded as %+v", data[0], m)
			}
			if err != nil {
				return
			}
			if n := cap(m.Args) + cap(m.Results); n*minVariantSize > len(data) {
				t.Fatalf("%d variants decoded from a %d-byte stream", n, len(data))
			}
			if n := cap(m.NodeIDs); n > len(data) {
				t.Fatalf("%d node IDs decoded from a %d-byte stream", n, len(data))
			}
			total := 0
			for _, id := range m.NodeIDs {
				total += len(id)
			}
			if total > wire.MaxFrame {
				t.Fatalf("node IDs expanded to %d bytes", total)
			}
			_ = m.AppendBinaryBody(nil)
		}
	})
}

// FuzzOpcuaBodyRoundTrip: any body the codec accepts re-encodes to a body
// that decodes to the same Message.
func FuzzOpcuaBodyRoundTrip(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(m.WireOp(), m.AppendBinaryBody(nil))
	}
	f.Add(mopCall, []byte{})
	f.Add(mopSubscribe, subscribeBody(maxNodeIDs))
	f.Add(mopSubscribe, growingSubscribeBody(4000))
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		var m Message
		if err := m.DecodeBinaryBody(op, body); err != nil {
			return
		}
		re := m.AppendBinaryBody(nil)
		var m2 Message
		if err := m2.DecodeBinaryBody(op, re); err != nil {
			t.Fatalf("re-encoded body rejected: %v\nbody: % x\nre:   % x", err, body, re)
		}
		if !sameMessage(&m, &m2) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", m, m2)
		}
	})
}

// sameMessage compares two decoded messages; the NodeInfo blob is compared
// by its JSON form, where an empty map or list and a missing one agree.
func sameMessage(a, b *Message) bool {
	na, _ := json.Marshal(a.Node)
	nb, _ := json.Marshal(b.Node)
	ca, cb := *a, *b
	ca.Node, cb.Node = nil, nil
	return bytes.Equal(na, nb) && reflect.DeepEqual(ca, cb)
}

// TestDecodeVariantAllocs: a Double variant decodes with one allocation,
// its value bytes; the type name is a constant (margin 0: copying the name
// cost one more).
func TestDecodeVariantAllocs(t *testing.T) {
	body := appendVariant(nil, V(1234.5625))
	var v Variant
	if n := testing.AllocsPerRun(200, func() {
		d := wire.NewDec(body)
		decodeVariant(&d, &v)
	}); n != 1 {
		t.Errorf("decoding a Double variant allocates %.1f objects, want 1", n)
	}
	if !v.Equal(V(1234.5625)) {
		t.Errorf("decoded %+v", v)
	}
	for _, typ := range []string{"Double", "String", "Boolean", "Int64", "Null", "Json", "Float", ""} {
		d := wire.NewDec(appendVariant(nil, Variant{Type: typ, Value: json.RawMessage("1")}))
		decodeVariant(&d, &v)
		if v.Type != typ || d.Finish() != nil {
			t.Errorf("type %q decoded as %q (%v)", typ, v.Type, d.Finish())
		}
	}
}
