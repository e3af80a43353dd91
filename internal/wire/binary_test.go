package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// binMsg is a minimal Frame for exercising the framing layer without
// pulling a protocol package into the tests.
type binMsg struct {
	Op      string
	Topic   string
	Payload []byte
}

const binMsgOp byte = 7

func (m *binMsg) WireOp() byte {
	if m.Op == "no-op" {
		return 0
	}
	return binMsgOp
}

func (m *binMsg) AppendBinaryBody(dst []byte) []byte {
	dst = AppendString(dst, m.Op)
	dst = AppendString(dst, m.Topic)
	return append(dst, m.Payload...)
}

func (m *binMsg) DecodeBinaryBody(op byte, body []byte) error {
	if op != binMsgOp {
		return fmt.Errorf("unexpected op %d", op)
	}
	d := NewDec(body)
	m.Op = d.String()
	m.Topic = d.String()
	m.Payload = d.Rest()
	return d.Finish()
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := binMsg{Op: "pub", Topic: "factory/wc02/emco/actualX", Payload: []byte{0x00, 0xB7, 0xFF, 0x01}}
	if err := w.WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != Magic {
		t.Fatalf("binary frame starts with %#x, want magic %#x", buf.Bytes()[0], Magic)
	}
	r := NewReader(&buf)
	var out binMsg
	if err := r.ReadFrame(&out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Topic != in.Topic || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip mangled message: %+v", out)
	}
}

// TestWriteFrameParts: the encode-once path must produce a frame
// byte-identical to the equivalent single-buffer encode.
func TestWriteFrameParts(t *testing.T) {
	whole := binMsg{Op: "pub", Topic: "t/x", Payload: []byte("payload")}
	var a, b bytes.Buffer
	wa := NewWriter(&a)
	if err := wa.WriteFrame(&whole); err != nil {
		t.Fatal(err)
	}
	if err := wa.Flush(); err != nil {
		t.Fatal(err)
	}
	wb := NewWriter(&b)
	prefix := AppendString(nil, whole.Op)
	tail := append(AppendString(nil, whole.Topic), whole.Payload...)
	if err := wb.WriteFrameParts(binMsgOp, prefix, tail); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("segmented encode differs:\n  whole %x\n  parts %x", a.Bytes(), b.Bytes())
	}
}

// TestPiggybackAck: a staged ack rides the next data frame's header and is
// surfaced through OnAck before the frame decodes.
func TestPiggybackAck(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.QueueAck(3, 41); err != nil {
		t.Fatal(err)
	}
	if err := w.QueueAck(3, 42); err != nil { // coalesces, max wins
		t.Fatal(err)
	}
	if err := w.WriteFrame(&binMsg{Op: "pub", Topic: "t/x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Exactly one frame on the wire: the ack shares the data frame header.
	r := NewReader(&buf)
	var acks []string
	r.OnAck = func(subID int, seq uint64) { acks = append(acks, fmt.Sprintf("%d:%d", subID, seq)) }
	var out binMsg
	if err := r.ReadFrame(&out); err != nil {
		t.Fatal(err)
	}
	if out.Topic != "t/x" {
		t.Errorf("data frame mangled: %+v", out)
	}
	if len(acks) != 1 || acks[0] != "3:42" {
		t.Errorf("piggybacked acks = %v, want [3:42]", acks)
	}
	if buf.Len() != 0 {
		t.Errorf("%d stray bytes after the combined frame", buf.Len())
	}
}

// TestAckOnlyFrames: acks staged with no data frame to ride flush as op-0
// frames, one per subscription, consumed internally by the Reader.
func TestAckOnlyFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.QueueAck(1, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.QueueAck(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Follow with a data frame so ReadFrame has something to return.
	if err := w.WriteFrame(&binMsg{Op: "pub", Topic: "t/after"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	acks := map[int]uint64{}
	r.OnAck = func(subID int, seq uint64) {
		if seq > acks[subID] {
			acks[subID] = seq
		}
	}
	var out binMsg
	if err := r.ReadFrame(&out); err != nil {
		t.Fatal(err)
	}
	if out.Topic != "t/after" {
		t.Errorf("data frame mangled: %+v", out)
	}
	if acks[1] != 5 || acks[2] != 7 {
		t.Errorf("cumulative acks = %v, want {1:5 2:7}", acks)
	}
}

func TestBinaryTruncated(t *testing.T) {
	var full bytes.Buffer
	w := NewWriter(&full)
	if err := w.WriteFrame(&binMsg{Op: "pub", Topic: "t/x", Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := full.Bytes()
	for cut := 1; cut < len(frame); cut++ {
		r := NewReader(bytes.NewReader(frame[:cut]))
		var out binMsg
		err := r.ReadFrame(&out)
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(frame))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
			!strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestBinaryBadVersionAndFlags(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{Magic, 99, 1, 0, 0}))
	var out binMsg
	if err := r.ReadFrame(&out); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: err = %v", err)
	}
	r = NewReader(bytes.NewReader([]byte{Magic, BinaryVersion, 1, 0x80, 0}))
	if err := r.ReadFrame(&out); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("unknown header flags: err = %v", err)
	}
}

func TestBinaryOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{Magic, BinaryVersion, 1, 0})
	// bodyLen = MaxFrame+1 as a uvarint.
	for v := uint64(MaxFrame + 1); ; {
		if v < 0x80 {
			buf.WriteByte(byte(v))
			break
		}
		buf.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	r := NewReader(&buf)
	var out binMsg
	if err := r.ReadFrame(&out); err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Errorf("oversized frame: err = %v", err)
	}
}

// TestBinaryNonBinaryTarget: a frame reporting the reserved op 0 has no
// encoding; the writer refuses it instead of staging anything.
func TestBinaryNonBinaryTarget(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(&binMsg{Op: "no-op"}); err == nil || !strings.Contains(err.Error(), "no op") {
		t.Errorf("op-0 frame: err = %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("op-0 frame left %d bytes on the wire", buf.Len())
	}
}

// TestDecCount: a count is trusted only as far as the rest of the body can
// hold that many elements of the stated minimum size.
func TestDecCount(t *testing.T) {
	d := NewDec([]byte{3, 'a', 'b', 'c', 'd', 'e', 'f'})
	if n := d.Count(2); n != 3 || d.Err() != nil {
		t.Errorf("Count(2) over 6 bytes claiming 3 = %d, %v", n, d.Err())
	}
	d = NewDec([]byte{4, 'a', 'b', 'c', 'd', 'e', 'f'})
	if n := d.Count(2); n != 0 || d.Err() == nil {
		t.Errorf("Count(2) over 6 bytes claiming 4 = %d, %v; want a failed cursor", n, d.Err())
	}
	if d.String() != "" {
		t.Error("accessor after a failed Count returned data")
	}
}

// TestBufSizeClasses: getBuf must serve each size class without allocating
// per call once warm, and putBuf must file regrown buffers under the class
// their capacity actually covers.
func TestBufSizeClasses(t *testing.T) {
	for _, n := range []int{1, 4 << 10, 4<<10 + 1, 64 << 10, maxPooledBuf} {
		bp := getBuf(n)
		if cap(*bp) < n {
			t.Errorf("getBuf(%d) capacity %d", n, cap(*bp))
		}
		putBuf(bp)
	}
	// Above the top class: fresh allocation, accepted back only if its
	// capacity still maps to a class under the 2x cap.
	bp := getBuf(maxPooledBuf + 1)
	if cap(*bp) < maxPooledBuf+1 {
		t.Fatalf("oversize getBuf capacity %d", cap(*bp))
	}
	putBuf(bp) // capacity ≤ 2*maxPooledBuf: pooled under the top class

	huge := make([]byte, 0, 3*maxPooledBuf)
	putBuf(&huge) // must be dropped, not pooled
	got := getBuf(maxPooledBuf)
	if cap(*got) > 2*maxPooledBuf {
		t.Errorf("jumbo buffer (cap %d) re-emerged from the pool", cap(*got))
	}
	putBuf(got)

	// A buffer that grew past its class comes back from the larger pool.
	grown := getBuf(10)
	*grown = append((*grown)[:0], make([]byte, 64<<10)...)
	putBuf(grown)
	big := getBuf(64 << 10)
	if cap(*big) < 64<<10 {
		t.Errorf("promoted buffer lost: capacity %d", cap(*big))
	}
	putBuf(big)
}

// TestWriterBinaryConcurrent: frame staging and acks from many goroutines must produce a stream that decodes completely.
func TestWriterBinaryConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&lockedWriter{w: &buf})
	const producers, each = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.WriteFrame(&binMsg{Op: "pub", Topic: fmt.Sprintf("p%d/%d", p, i)}); err != nil {
					t.Error(err)
					return
				}
				if err := w.QueueAck(p, uint64(i+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	// Flush returns only after the last flusher drained; all producers have
	// exited, so the buffer is quiescent.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	acks := map[int]uint64{}
	r.OnAck = func(subID int, seq uint64) {
		if seq > acks[subID] {
			acks[subID] = seq
		}
	}
	frames := 0
	for {
		var out binMsg
		err := r.ReadFrame(&out)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
	}
	if frames != producers*each {
		t.Errorf("decoded %d frames, want %d", frames, producers*each)
	}
	for p := 0; p < producers; p++ {
		if acks[p] != each {
			t.Errorf("sub %d cumulative ack = %d, want %d", p, acks[p], each)
		}
	}
}

// TestDecIntern: a repeated value decodes to the table's string without
// allocating; the table stops at InternMaxEntries and never holds a value
// longer than InternMaxLen, and every value still decodes intact.
func TestDecIntern(t *testing.T) {
	var tab Interner
	body := AppendString(nil, "factory/line1/wc02/emco/values/Axes/load")
	first := NewDec(body)
	want := first.Intern(&tab)
	if n := testing.AllocsPerRun(100, func() {
		d := NewDec(body)
		if d.Intern(&tab) != want {
			t.Fatal("interned value changed")
		}
	}); n != 0 {
		t.Errorf("decoding a seen value allocates %.1f objects, want 0", n)
	}

	long := strings.Repeat("x", InternMaxLen+1)
	d := NewDec(AppendString(nil, long))
	if got := d.Intern(&tab); got != long || tab.Len() != 1 {
		t.Errorf("long value decoded as %d bytes, table holds %d; want it intact and not held", len(got), tab.Len())
	}
	for i := 0; i < InternMaxEntries+10; i++ {
		v := fmt.Sprintf("t/%d", i)
		d := NewDec(AppendString(nil, v))
		if got := d.Intern(&tab); got != v {
			t.Fatalf("decoded %q, want %q", got, v)
		}
	}
	if tab.Len() != InternMaxEntries {
		t.Errorf("table holds %d values, want its bound %d", tab.Len(), InternMaxEntries)
	}
	d = NewDec(AppendString(nil, "abc"))
	if v := d.View(); string(v) != "abc" || d.Finish() != nil {
		t.Errorf("View = %q, %v", v, d.Finish())
	}
	d = NewDec([]byte{4, 'a'})
	if d.Intern(nil) != "" || d.Err() == nil {
		t.Error("truncated field decoded")
	}
}
