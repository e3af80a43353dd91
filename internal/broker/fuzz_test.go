package broker

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/wire"
)

// fuzzSeedStream builds a valid stream for the seed corpus: data frames, a
// piggybacked ack and an ack-only frame.
func fuzzSeedStream() []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	_ = w.WriteFrame(&frame{Op: opPub, Topic: "f/x", Payload: []byte("first")})
	_ = w.QueueAck(2, 9)
	_ = w.WriteFrame(&frame{Op: opMsg, SubID: 1, Seq: 4, Topic: "f/x", Payload: []byte{0x00, 0xB7, 0xFF}})
	_ = w.QueueAck(3, 17) // no data frame follows: flushes ack-only
	_ = w.Flush()
	return buf.Bytes()
}

// FuzzBinaryFrameDecode throws corrupt, truncated and oversized streams at
// the frame reader and the broker frame codec. The invariant is
// error-or-decode — never a panic, never an over-allocation (MaxFrame and
// the Dec bounds checks bite before any length is trusted) — and a stream
// that does not open with the magic is refused outright.
func FuzzBinaryFrameDecode(f *testing.F) {
	f.Add(fuzzSeedStream())
	f.Add([]byte{wire.Magic, wire.BinaryVersion, 4, 0, 3, 1, 2, 3})
	f.Add([]byte{wire.Magic, 99, 0, 0})                    // bad version
	f.Add([]byte{wire.Magic, wire.BinaryVersion, 0, 0xFF}) // unknown hflags
	f.Add([]byte{wire.Magic, wire.BinaryVersion, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Add([]byte{0, 0, 0, 2, '{', '}'}) // legacy JSON frame: must be refused
	seed := fuzzSeedStream()
	f.Add(seed[:len(seed)-3]) // truncated tail

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(bytes.NewReader(data))
		r.OnAck = func(subID int, seq uint64) {
			if seq == 0 {
			} // acks are opaque here; the callback just must not break reads
		}
		for i := 0; i < 64; i++ {
			var fr frame
			err := r.ReadFrame(&fr)
			if i == 0 && len(data) > 0 && data[0] != wire.Magic && err == nil {
				t.Fatalf("stream opening with %#x decoded as %+v", data[0], fr)
			}
			if err != nil {
				return // EOF, truncation or garbage: the expected outcomes
			}
			// A decoded frame must re-encode without panicking.
			if op := fr.WireOp(); op != 0 {
				_ = fr.AppendBinaryBody(nil)
			}
		}
	})
}

// FuzzBinaryBodyRoundTrip: any body the codec decodes successfully must
// re-encode to a body that decodes to the same frame — the codec is
// canonical for everything it accepts except unknown trailing content,
// which it rejects.
func FuzzBinaryBodyRoundTrip(f *testing.F) {
	okFrame := frame{Op: opMsg, ID: 7, SubID: 3, Seq: 99, Topic: "a/b", Session: "s", Payload: []byte{1, 2, 3}}
	f.Add(byte(4), okFrame.AppendBinaryBody(nil))
	f.Add(byte(1), []byte{})
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		var fr frame
		if err := fr.DecodeBinaryBody(op, body); err != nil {
			return
		}
		re := fr.AppendBinaryBody(nil)
		var fr2 frame
		if err := fr2.DecodeBinaryBody(op, re); err != nil {
			t.Fatalf("re-encoded body rejected: %v\nbody:  % x\nre:    % x", err, body, re)
		}
		if fr.ID != fr2.ID || fr.SubID != fr2.SubID || fr.Seq != fr2.Seq ||
			fr.Topic != fr2.Topic || fr.Session != fr2.Session || fr.Error != fr2.Error ||
			!bytes.Equal(fr.Payload, fr2.Payload) || fr.Retain != fr2.Retain ||
			fr.Acked != fr2.Acked || fr.NoAck != fr2.NoAck {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", fr, fr2)
		}
	})
}

// refMatchTopic and refValidateFilter are the split-into-levels
// definitions MatchTopic and ValidateFilter replaced: the executable
// reference the allocation-free walks are fuzzed against.
func refMatchTopic(filter, topic string) bool {
	f := strings.Split(filter, "/")
	t := strings.Split(topic, "/")
	for i, seg := range f {
		if seg == "#" {
			return i == len(f)-1
		}
		if i >= len(t) {
			return false
		}
		if seg != "+" && seg != t[i] {
			return false
		}
	}
	return len(f) == len(t)
}

func refValidateFilter(filter string) error {
	if filter == "" {
		return errors.New("broker: empty topic filter")
	}
	segs := strings.Split(filter, "/")
	for i, seg := range segs {
		if seg == "#" && i != len(segs)-1 {
			return fmt.Errorf("broker: %q: '#' must be the final level", filter)
		}
		if strings.Contains(seg, "#") && seg != "#" || strings.Contains(seg, "+") && seg != "+" {
			return fmt.Errorf("broker: %q: wildcards must occupy a whole level", filter)
		}
	}
	return nil
}

// FuzzMatchTopic holds MatchTopic and ValidateFilter to their references:
// the same match for every filter and topic, the same error (or none) for
// every filter — empty levels, leading and trailing slashes, wildcards
// inside a level and a "#" that is not last included.
func FuzzMatchTopic(f *testing.F) {
	for _, c := range [][2]string{
		{"a/b/c", "a/b/c"}, {"a/b/c", "a/b"}, {"a/b", "a/b/c"}, {"a/+/c", "a/x/c"},
		{"a/#", "a"}, {"a/#", "a/"}, {"#", ""}, {"+", ""}, {"", ""}, {"/", "/"},
		{"+/+", "/"}, {"a//#", "a//b"}, {"a/#/b", "a/x/b"}, {"a/b#", "a/b#"},
		{"a/+x/c", "a/+x/c"}, {"factory/+/+/+/values/#", "factory/line1/wc02/emco/values/Axes/actualX"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, filter, topic string) {
		if got, want := MatchTopic(filter, topic), refMatchTopic(filter, topic); got != want {
			t.Fatalf("MatchTopic(%q, %q) = %v, reference %v", filter, topic, got, want)
		}
		got, want := ValidateFilter(filter), refValidateFilter(filter)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ValidateFilter(%q) = %v, reference %v", filter, got, want)
		}
	})
}
