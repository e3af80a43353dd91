package historian

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// unixNano reconstructs an instant from stored nanoseconds (a WAL record's
// batch time, a query window's bounds). The result is canonically UTC:
// only the instant is stored, not the wall-clock location.
func unixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// Binary WAL record format. It packs a walRecord into a version-tagged
// binary layout with a per-record series dictionary (a JSON encoding of the
// same batch is ~1.1KB/record once base64 payloads and field names add up):
//
//	0x01                          version tag
//	uvarint                       zigzag(batch time, unix nanos)
//	uvarint + bytes               session name
//	uvarint                       session seq
//	uvarint                       dictionary size, then per entry:
//	  uvarint + bytes               series name (first-seen order)
//	uvarint                       sample count, then per sample:
//	  uvarint                       dictionary index
//	  0x00 uvarint + bytes          payload, as it arrived
//
// Records stay self-contained — no cross-record deltas — because
// checkpoints truncate the log at arbitrary record boundaries.

const walBinaryVersion = 0x01

const (
	walPayloadRaw = 0x00
	// walPayloadPackedFloat is the retired tag of a sample packed as the 8
	// bytes of its float64; nothing writes it and decode refuses it.
	walPayloadPackedFloat = 0x01
)

// errWALPackedFloat refuses a record holding a packed-float sample.
var errWALPackedFloat = errors.New("historian: wal record: packed-float sample (tag 0x01) is no longer read")

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendWALRecord encodes rec into dst (reusing its capacity).
func appendWALRecord(dst []byte, t int64, session string, seq uint64, samples []Sample) []byte {
	dst = append(dst, walBinaryVersion)
	dst = binary.AppendUvarint(dst, zigzag(t))
	dst = binary.AppendUvarint(dst, uint64(len(session)))
	dst = append(dst, session...)
	dst = binary.AppendUvarint(dst, seq)

	// Series dictionary in first-seen order. Batches carry few distinct
	// series (often one), so a linear scan beats a map allocation.
	var dictArr [16]string
	dict := dictArr[:0]
	for i := range samples {
		name := samples[i].Series
		found := false
		for _, d := range dict {
			if d == name {
				found = true
				break
			}
		}
		if !found {
			dict = append(dict, name)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, d := range dict {
		dst = binary.AppendUvarint(dst, uint64(len(d)))
		dst = append(dst, d...)
	}

	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	for i := range samples {
		sm := &samples[i]
		di := 0
		for j, d := range dict {
			if d == sm.Series {
				di = j
				break
			}
		}
		dst = binary.AppendUvarint(dst, uint64(di))
		dst = append(dst, walPayloadRaw)
		dst = binary.AppendUvarint(dst, uint64(len(sm.Payload)))
		dst = append(dst, sm.Payload...)
	}
	return dst
}

// decodeWALRecord parses a binary record. A record that does not open with
// walBinaryVersion is refused: no other format is read.
func decodeWALRecord(p []byte) (walRecord, error) {
	var rec walRecord
	if len(p) == 0 || p[0] != walBinaryVersion {
		return rec, fmt.Errorf("historian: wal record: not a version-%d record", walBinaryVersion)
	}
	r := walReader{buf: p, off: 1}
	tz := r.uvarint()
	rec.T = unixNano(unzigzag(tz))
	rec.Session = string(r.bytes(int(r.uvarint())))
	rec.Seq = r.uvarint()

	nd := r.uvarint()
	if r.err == nil && nd > uint64(len(p)) {
		return rec, fmt.Errorf("historian: wal record: dictionary size %d exceeds record", nd)
	}
	dict := make([]string, 0, nd)
	for i := uint64(0); i < nd && r.err == nil; i++ {
		dict = append(dict, string(r.bytes(int(r.uvarint()))))
	}

	ns := r.uvarint()
	if r.err == nil && ns > uint64(len(p)) {
		return rec, fmt.Errorf("historian: wal record: sample count %d exceeds record", ns)
	}
	rec.Samples = make([]walSample, 0, ns)
	for i := uint64(0); i < ns && r.err == nil; i++ {
		di := r.uvarint()
		if r.err == nil && di >= uint64(len(dict)) {
			return rec, fmt.Errorf("historian: wal record: dictionary index %d out of range", di)
		}
		tag := r.byte()
		var payload []byte
		switch tag {
		case walPayloadRaw:
			payload = append([]byte(nil), r.bytes(int(r.uvarint()))...)
		case walPayloadPackedFloat:
			return rec, errWALPackedFloat
		default:
			if r.err == nil {
				return rec, fmt.Errorf("historian: wal record: unknown payload tag 0x%02x", tag)
			}
		}
		if r.err == nil {
			rec.Samples = append(rec.Samples, walSample{Series: dict[di], Payload: payload})
		}
	}
	if r.err != nil {
		return rec, fmt.Errorf("historian: wal record: %w", r.err)
	}
	return rec, nil
}

// walReader is a cursor with sticky error handling over a record buffer.
type walReader struct {
	buf []byte
	off int
	err error
}

var errWALTruncated = fmt.Errorf("truncated record")

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = errWALTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *walReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = errWALTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *walReader) byte() byte {
	b := r.bytes(1)
	if r.err != nil {
		return 0xFF
	}
	return b[0]
}
