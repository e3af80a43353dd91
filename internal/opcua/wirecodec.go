package opcua

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// Op bytes of the OPC UA protocol (op 0 is reserved by internal/wire). The
// op tables are per-protocol: these bytes are unrelated to the broker's.
const (
	mopHello byte = iota + 1
	mopRead
	mopWrite
	mopCall
	mopBrowse
	mopSubscribe
	mopUnsubscribe
	mopNotify
)

var byteToOp = [...]string{
	mopHello:       OpHello,
	mopRead:        OpRead,
	mopWrite:       OpWrite,
	mopCall:        OpCall,
	mopBrowse:      OpBrowse,
	mopSubscribe:   OpSubscribe,
	mopUnsubscribe: OpUnsubscribe,
	mopNotify:      OpNotify,
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
	mfOK byte = 1 << iota
	mfValue
	mfNode
)

// WireOp implements wire.Frame.
func (m *Message) WireOp() byte { return opToByte[m.Op] }

// AppendBinaryBody implements wire.Frame. Variants encode natively
// (their Value is already raw JSON bytes — no base64 detour); the rarely
// shipped NodeInfo (browse responses only) is embedded as a JSON blob
// rather than given its own schema.
func (m *Message) AppendBinaryBody(dst []byte) []byte {
	var flags byte
	if m.OK {
		flags |= mfOK
	}
	if m.Value != nil {
		flags |= mfValue
	}
	if m.Node != nil {
		flags |= mfNode
	}
	dst = binary.AppendUvarint(dst, m.ID)
	dst = binary.AppendUvarint(dst, uint64(m.SubID))
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = append(dst, flags)
	dst = wire.AppendString(dst, string(m.NodeID))
	dst = wire.AppendString(dst, m.Error)
	dst = wire.AppendString(dst, m.Endpoint)
	if m.Value != nil {
		dst = appendVariant(dst, *m.Value)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Args)))
	for _, v := range m.Args {
		dst = appendVariant(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Results)))
	for _, v := range m.Results {
		dst = appendVariant(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.NodeIDs)))
	var prev NodeID
	for _, id := range m.NodeIDs {
		// Front coding: the length of the prefix shared with the previous
		// ID, then the rest. A machine's IDs share "ns=1;s=<machine>/...",
		// three quarters of their bytes on a generated plant.
		k := 0
		for k < len(id) && k < len(prev) && id[k] == prev[k] {
			k++
		}
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = wire.AppendString(dst, string(id[k:]))
		prev = id
	}
	if m.Node != nil {
		blob, _ := json.Marshal(m.Node) // plain struct; cannot fail
		dst = wire.AppendBytes(dst, blob)
	}
	return dst
}

func appendVariant(dst []byte, v Variant) []byte {
	dst = wire.AppendString(dst, v.Type)
	return wire.AppendBytes(dst, v.Value)
}

// maxVariants bounds Args/Results counts while decoding, and maxNodeIDs a
// subscribe list's, so even a frame whose body could hold more cannot ask
// for an outsized allocation.
const (
	maxVariants = 1 << 16
	maxNodeIDs  = 1 << 16
)

// minVariantSize is the smallest encoding of a Variant: an empty type and
// an empty value, one length byte each.
const minVariantSize = 2

// DecodeBinaryBody implements wire.Frame.
func (m *Message) DecodeBinaryBody(op byte, body []byte) error {
	if int(op) >= len(byteToOp) || byteToOp[op] == "" {
		return fmt.Errorf("unknown binary op %d", op)
	}
	m.Op = byteToOp[op]
	d := wire.NewDec(body)
	m.ID = d.Uvarint()
	m.SubID = int(d.Uvarint())
	m.Seq = d.Uvarint()
	flags := d.Byte()
	m.NodeID = NodeID(d.String())
	m.Error = d.String()
	m.Endpoint = d.String()
	m.OK = flags&mfOK != 0
	if flags&mfValue != 0 {
		var v Variant
		decodeVariant(&d, &v)
		m.Value = &v
	}
	var err error
	if m.Args, err = decodeVariants(&d); err != nil {
		return err
	}
	if m.Results, err = decodeVariants(&d); err != nil {
		return err
	}
	if m.NodeIDs, err = decodeNodeIDs(&d); err != nil {
		return err
	}
	if flags&mfNode != 0 {
		blob := d.Bytes()
		if d.Err() == nil && len(blob) > 0 {
			m.Node = new(NodeInfo)
			if err := json.Unmarshal(blob, m.Node); err != nil {
				return err
			}
		}
	}
	return d.Finish()
}

func decodeVariant(d *wire.Dec, v *Variant) {
	v.Type = variantType(d.View())
	v.Value = d.Bytes()
}

// variantType returns the built-in type names V and WriteRaw produce as
// constants, so a notify does not copy its type name; only an unknown name
// is copied out of the body.
func variantType(b []byte) string {
	switch string(b) {
	case "Double":
		return "Double"
	case "String":
		return "String"
	case "Boolean":
		return "Boolean"
	case "Int64":
		return "Int64"
	case "Null":
		return "Null"
	case "Json":
		return "Json"
	}
	return string(b)
}

// decodeVariants decodes a counted Variant sequence. The count is bounded
// by what the rest of the body can hold before anything is allocated.
func decodeVariants(d *wire.Dec) ([]Variant, error) {
	n := d.Count(minVariantSize)
	if n > maxVariants {
		return nil, fmt.Errorf("%d variants exceed the limit of %d", n, maxVariants)
	}
	if n == 0 {
		return nil, nil
	}
	vs := make([]Variant, n)
	for i := range vs {
		decodeVariant(d, &vs[i])
	}
	return vs, nil
}

// decodeNodeIDs decodes a counted, front-coded node ID list, bounded like
// decodeVariants: an ID takes at least its two length bytes. A shared
// prefix longer than the previous ID fails the decode, and so does a list
// that would expand past wire.MaxFrame bytes: front coding must not turn a
// small frame into a quadratic allocation.
func decodeNodeIDs(d *wire.Dec) ([]NodeID, error) {
	n := d.Count(2)
	if n > maxNodeIDs {
		return nil, fmt.Errorf("%d node IDs exceed the limit of %d", n, maxNodeIDs)
	}
	if n == 0 {
		return nil, nil
	}
	ids := make([]NodeID, n)
	var prev NodeID
	total := 0
	for i := range ids {
		k := d.Uvarint()
		rest := d.String()
		if k > uint64(len(prev)) {
			return nil, fmt.Errorf("node ID %d shares %d bytes with a %d-byte ID", i, k, len(prev))
		}
		if total += int(k) + len(rest); total > wire.MaxFrame {
			return nil, fmt.Errorf("node IDs expand past %d bytes", wire.MaxFrame)
		}
		ids[i] = prev[:k] + NodeID(rest)
		prev = ids[i]
	}
	return ids, nil
}
