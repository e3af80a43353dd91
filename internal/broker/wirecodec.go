package broker

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// Op bytes of the broker protocol (op 0 is reserved by internal/wire for
// ack-only frames); byteToOp/opToByte map them to frame.Op. The numbers
// are the wire contract: 6 (a retired ack frame) and 8 (a retired
// capability advert) stay unassigned.
const (
	bopPub   byte = 1
	bopSub   byte = 2
	bopUnsub byte = 3
	bopMsg   byte = 4
	bopAck   byte = 5
	bopErr   byte = 7
)

var byteToOp = [...]string{
	bopPub:   opPub,
	bopSub:   opSub,
	bopUnsub: opUnsub,
	bopMsg:   opMsg,
	bopAck:   opAck,
	bopErr:   opErr,
}

var opToByte = func() map[string]byte {
	m := map[string]byte{}
	for b, op := range byteToOp {
		if op != "" {
			m[op] = byte(b)
		}
	}
	return m
}()

// Body flag bits. Bit 3 (a retired capability flag) stays unassigned.
const (
	bfRetain byte = 1 << 0
	bfAcked  byte = 1 << 1
	bfNoAck  byte = 1 << 2
	bfFwd    byte = 1 << 4
)

// WireOp implements wire.Frame: the frame's op byte, or 0 for an unknown
// op (which the writer refuses).
func (f *frame) WireOp() byte { return opToByte[f.Op] }

// AppendBinaryBody implements wire.Frame. Field order is fixed:
//
//	uvarint ID, uvarint SubID, uvarint Seq — the per-subscriber prefix
//	uvarint FromSeq, flags byte, topic, session, error, raw payload — the
//	shared tail (appendFrameTail), identical for every subscriber copy of
//	a published message, which is what makes encode-once fan-out possible.
func (f *frame) AppendBinaryBody(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, f.ID)
	dst = binary.AppendUvarint(dst, uint64(f.SubID))
	dst = binary.AppendUvarint(dst, f.Seq)
	var flags byte
	if f.Retain {
		flags |= bfRetain
	}
	if f.Acked {
		flags |= bfAcked
	}
	if f.NoAck {
		flags |= bfNoAck
	}
	if f.Fwd {
		flags |= bfFwd
	}
	return appendFrameTail(dst, f.FromSeq, flags, f.Topic, f.Session, f.Error, f.Payload)
}

// appendFrameTail encodes the fields shared by every subscriber copy of a
// message — everything after the (ID, SubID, Seq) prefix.
func appendFrameTail(dst []byte, fromSeq uint64, flags byte, topic, session, errStr string, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, fromSeq)
	dst = append(dst, flags)
	dst = wire.AppendString(dst, topic)
	dst = wire.AppendString(dst, session)
	dst = wire.AppendString(dst, errStr)
	return append(dst, payload...)
}

// DecodeBinaryBody implements wire.Frame.
func (f *frame) DecodeBinaryBody(op byte, body []byte) error {
	if int(op) >= len(byteToOp) || byteToOp[op] == "" {
		return fmt.Errorf("unknown binary op %d", op)
	}
	f.Op = byteToOp[op]
	d := wire.NewDec(body)
	f.ID = d.Uvarint()
	f.SubID = int(d.Uvarint())
	f.Seq = d.Uvarint()
	f.FromSeq = d.Uvarint()
	flags := d.Byte()
	f.Topic = d.Intern(f.topics)
	f.Session = d.String()
	f.Error = d.String()
	f.Payload = d.Rest()
	if err := d.Finish(); err != nil {
		return err
	}
	f.Retain = flags&bfRetain != 0
	f.Acked = flags&bfAcked != 0
	f.NoAck = flags&bfNoAck != 0
	f.Fwd = flags&bfFwd != 0
	return nil
}

// msgEnc memoizes the shared binary tail of one published message's msg
// frames. The broker allocates one msgEnc per publish while at least one
// wire connection is live (nil otherwise — sendMsg then encodes each frame
// itself, keeping purely in-process fan-out at its pre-wire allocation
// count); every Message copy fanned out to subscriber rings, acked queues
// and retained storage shares the pointer, so the tail is encoded at most
// once per publish no matter how many connections deliver it. The buffer
// is immutable once built and GC-managed: in-process consumers (historian,
// monitor) receive the same Message values and must never observe a
// recycled buffer, so there is deliberately no pooling or refcounting here
// — the single amortized allocation per publish is the cost of that safety
// (DESIGN.md §12 covers the ownership rules).
type msgEnc struct {
	once sync.Once
	tail []byte
}

// binaryTail returns the message's shared encoded tail, building it on
// first use. Encoding is lazy so purely in-process fan-out (no subscriber
// connections) never pays for it. Safe for concurrent use from
// multiple connection pumps; callers must not mutate the result.
func (m *Message) binaryTail() []byte {
	e := m.enc
	e.once.Do(func() {
		var flags byte
		if m.Retained {
			flags |= bfRetain
		}
		buf := make([]byte, 0, len(m.Topic)+len(m.Payload)+16)
		e.tail = appendFrameTail(buf, 0, flags, m.Topic, "", "", m.Payload)
	})
	return e.tail
}

// sendMsg pushes one subscription message to a connection writer. The
// shared tail is encoded once per publish and reused across every
// subscriber; only the tiny (ID=0, SubID, Seq) varint prefix is assembled
// per connection. Messages without an encoder (published before the first
// connection went live) take the regular frame path.
func sendMsg(w *wire.Writer, subID int, m *Message) error {
	if m.enc != nil {
		var pre [2*binary.MaxVarintLen64 + 1]byte
		p := append(pre[:0], 0) // ID 0: pushes are not correlated
		p = binary.AppendUvarint(p, uint64(subID))
		p = binary.AppendUvarint(p, m.Seq)
		return w.WriteFrameParts(bopMsg, p, m.binaryTail())
	}
	return w.WriteFrame(&frame{Op: opMsg, SubID: subID, Topic: m.Topic, Payload: m.Payload, Retain: m.Retained, Seq: m.Seq})
}
