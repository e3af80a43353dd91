// Frame grammar. Every frame on a wire stream is
//
//	magic(0xB7) version(1) op(1) hflags(1)
//	[hflags&hdrAck: uvarint ackSubID, uvarint ackSeq]
//	uvarint bodyLen, body
//
// The version byte is the evolution hook: a Reader refuses any version it
// does not know, and a stream whose next byte is not the magic is refused
// as "not a frame" rather than guessed at.
//
// Op 0 is reserved for ack-only frames (an empty body carrying just the
// piggyback-ack header); protocol packages number their ops from 1.
// DESIGN.md §12 documents the grammar and the op tables.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// Magic is the first byte of every frame.
	Magic byte = 0xB7
	// BinaryVersion is the framing version carried in every frame header.
	BinaryVersion byte = 1
	// hdrAck marks a header carrying a piggybacked cumulative ack.
	hdrAck byte = 1 << 0
	// opNone is the reserved ack-only op.
	opNone byte = 0
)

// Frame is implemented by protocol envelope types (broker frames, OPC UA
// messages). WireOp returns the frame's op byte; 0 is reserved, so a frame
// that reports it cannot be written.
type Frame interface {
	WireOp() byte
	AppendBinaryBody(dst []byte) []byte
	DecodeBinaryBody(op byte, body []byte) error
}

// Reader decodes a stream of frames.
type Reader struct {
	br *bufio.Reader

	// OnAck, when set, receives piggybacked cumulative acks (both those
	// riding a data frame's header and ack-only frames). It is called on
	// the goroutine driving ReadFrame, before the frame body is decoded.
	OnAck func(subID int, seq uint64)
}

// NewReader wraps r (typically a net.Conn) for frame reads.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// ReadFrame reads one frame and decodes it into f. Ack-only frames are
// consumed internally (reported via OnAck) and never surface.
func (r *Reader) ReadFrame(f Frame) error {
	for {
		first, err := r.br.Peek(1)
		if err != nil {
			return err
		}
		if first[0] != Magic {
			return fmt.Errorf("wire: not a frame (first byte %#x, want magic %#x)", first[0], Magic)
		}
		var hdr [4]byte
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			return err
		}
		if hdr[1] != BinaryVersion {
			return fmt.Errorf("wire: unsupported frame version %d", hdr[1])
		}
		op, hflags := hdr[2], hdr[3]
		if hflags&^hdrAck != 0 {
			return fmt.Errorf("wire: unknown frame header flags %#x", hflags)
		}
		if hflags&hdrAck != 0 {
			sub, err := binary.ReadUvarint(r.br)
			if err != nil {
				return err
			}
			seq, err := binary.ReadUvarint(r.br)
			if err != nil {
				return err
			}
			if r.OnAck != nil {
				r.OnAck(int(sub), seq)
			}
		}
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return err
		}
		if n > MaxFrame {
			return fmt.Errorf("wire: oversized frame (%d bytes)", n)
		}
		if op == opNone {
			// Ack-only frame; a nonzero body is skipped for forward compat.
			if n > 0 {
				if _, err := r.br.Discard(int(n)); err != nil {
					return err
				}
			}
			continue
		}
		bp := getBuf(int(n))
		buf := (*bp)[:n]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			putBuf(bp)
			return err
		}
		err = f.DecodeBinaryBody(op, buf)
		putBuf(bp)
		if err != nil {
			return fmt.Errorf("wire: decode frame: %w", err)
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// Encode/decode helpers for protocol codecs.

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length followed by the raw bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

var errTruncated = errors.New("truncated binary frame")

// Dec is a cursor over a binary frame body. Every accessor but View copies
// what it returns (the body buffer is pooled), returns the zero value after
// the first decode error, and the terminal Err surfaces that error once.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decode cursor over body.
func NewDec(body []byte) Dec { return Dec{b: body} }

// Uvarint decodes one varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count decodes the element count of a sequence whose elements each take
// at least minSize (≥ 1) bytes of the body. A count the rest of the body
// cannot hold fails the cursor before anything is sized from it, so a
// corrupt count never turns into a large allocation.
func (d *Dec) Count(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/minSize) {
		d.err = errTruncated
		return 0
	}
	return int(n)
}

// Byte decodes one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errTruncated
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// take consumes a length-prefixed field and returns its bytes (a view into
// the body; callers copy).
func (d *Dec) take() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = errTruncated
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// String decodes a length-prefixed string.
func (d *Dec) String() string { return string(d.take()) }

// View decodes a length-prefixed field without copying it: the result
// points into the body and is valid only until DecodeBinaryBody returns.
// A caller that keeps the value copies it (Intern, or a switch mapping it
// to constants).
func (d *Dec) View() []byte { return d.take() }

// Intern decodes a length-prefixed string through t, so a value the
// connection sent before costs a map lookup and no allocation. A nil t
// decodes as String.
func (d *Dec) Intern(t *Interner) string {
	v := d.take()
	if t == nil || len(v) == 0 || len(v) > InternMaxLen {
		return string(v)
	}
	if s, ok := t.m[string(v)]; ok {
		return s
	}
	s := string(v)
	if len(t.m) < InternMaxEntries {
		if t.m == nil {
			t.m = map[string]string{}
		}
		t.m[s] = s
	}
	return s
}

// Interner bounds: a peer can make an Interner hold at most
// InternMaxEntries strings of at most InternMaxLen bytes each (1 MiB);
// longer values and values past a full table decode as plain copies.
const (
	InternMaxEntries = 4096
	InternMaxLen     = 256
)

// Interner maps the byte strings a connection keeps repeating (broker
// topics) to one shared string each. It belongs to the goroutine reading
// the connection and is not safe for concurrent use. The zero value is
// ready to use.
type Interner struct {
	m map[string]string
}

// Len returns how many strings the table holds.
func (t *Interner) Len() int { return len(t.m) }

// Bytes decodes a length-prefixed byte field, copied out of the body.
// An empty field decodes as nil.
func (d *Dec) Bytes() []byte {
	v := d.take()
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// Rest copies whatever remains of the body (nil when empty) — the
// convention for a frame's trailing raw payload.
func (d *Dec) Rest() []byte {
	if d.err != nil || len(d.b) == 0 {
		return nil
	}
	v := append([]byte(nil), d.b...)
	d.b = nil
	return v
}

// Err returns the first decode error (nil while decoding is on track).
func (d *Dec) Err() error { return d.err }

// Finish returns the first decode error, or an error if the body has
// undecoded bytes left (Rest consumes them legitimately) — the terminal
// check of a DecodeBinaryBody implementation.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("binary frame has %d trailing bytes", len(d.b))
	}
	return nil
}
