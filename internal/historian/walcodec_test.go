package historian

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/smartfactory/sysml2conf/internal/wal"
)

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		session string
		seq     uint64
		samples []Sample
	}{
		{"numeric batch", "historian/h/topic", 42, []Sample{
			{Series: "cell/m1/x", Payload: []byte("12.25")},
			{Series: "cell/m1/x", Payload: []byte("12.5")},
			{Series: "cell/m2/x", Payload: []byte("0")},
		}},
		{"raw batch", "", 0, []Sample{
			{Series: "cell/m1/state", Payload: []byte(`{"state":"RUNNING"}`)},
			{Series: "cell/m1/x", Payload: []byte("not numeric")},
			{Series: "cell/m1/x", Payload: []byte{}},
		}},
		{"numbers in several spellings", "s", 7, []Sample{
			{Series: "a", Payload: []byte("1e3")},
			{Series: "a", Payload: []byte("12.250")}, // trailing zero
			{Series: "a", Payload: []byte("1e-7")},
			{Series: "a", Payload: []byte("-0.5")},
		}},
	}
	ts := time.Date(2026, 8, 9, 12, 0, 0, 123456789, time.UTC)
	for _, c := range cases {
		enc := appendWALRecord(nil, ts.UnixNano(), c.session, c.seq, c.samples)
		if enc[0] != walBinaryVersion {
			t.Fatalf("%s: first byte 0x%02x, want version tag", c.name, enc[0])
		}
		rec, err := decodeWALRecord(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !rec.T.Equal(ts) || rec.Session != c.session || rec.Seq != c.seq {
			t.Fatalf("%s: header (%v, %q, %d), want (%v, %q, %d)", c.name, rec.T, rec.Session, rec.Seq, ts, c.session, c.seq)
		}
		if len(rec.Samples) != len(c.samples) {
			t.Fatalf("%s: %d samples, want %d", c.name, len(rec.Samples), len(c.samples))
		}
		for i, sm := range rec.Samples {
			if sm.Series != c.samples[i].Series || !bytes.Equal(sm.Payload, c.samples[i].Payload) {
				t.Fatalf("%s sample %d: (%q, %q), want (%q, %q)", c.name, i, sm.Series, sm.Payload, c.samples[i].Series, c.samples[i].Payload)
			}
		}
	}
}

func TestWALRecordTruncatedAndCorrupt(t *testing.T) {
	enc := appendWALRecord(nil, time.Now().UnixNano(), "s", 9, []Sample{
		{Series: "a", Payload: []byte("12.25")},
		{Series: "b", Payload: []byte("raw bytes")},
	})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeWALRecord(enc[:cut]); err == nil {
			t.Fatalf("cut at %d/%d decoded without error", cut, len(enc))
		}
	}
	bad := append([]byte(nil), enc...)
	bad[len(bad)-10] ^= 0xFF // flip inside the payload area
	// Corruption may still parse (payload bytes are opaque) but must not panic.
	decodeWALRecord(bad)
}

// TestWALBinarySmallerThanJSON pins the size of the binary record against
// a JSON encoding of the same batch of numeric samples.
func TestWALBinarySmallerThanJSON(t *testing.T) {
	ts := time.Now()
	samples := make([]Sample, 16)
	for i := range samples {
		samples[i] = Sample{Series: "factory/cell-1/m1/actualX", Payload: []byte(fmt.Sprintf("%d.25", i))}
	}
	bin := appendWALRecord(nil, ts.UnixNano(), "historian/h/factory/#", 99, samples)
	rec := walRecord{T: ts, Session: "historian/h/factory/#", Seq: 99, Samples: make([]walSample, len(samples))}
	for i, sm := range samples {
		rec.Samples[i] = walSample{Series: sm.Series, Payload: sm.Payload}
	}
	js, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("binary %dB vs JSON %dB (%.1fx) for a 16-sample numeric batch", len(bin), len(js), float64(len(js))/float64(len(bin)))
	if len(bin)*2 > len(js) {
		t.Fatalf("binary record %dB is not at least 2x smaller than JSON %dB", len(bin), len(js))
	}
}

// bridgeSamples is a batch shaped like the bridge's: n VariableSample
// objects spread over a few series.
func bridgeSamples(n, series int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{
			Series:  fmt.Sprintf("factory/icelab/cell-1/m%d/values/actualX", i%series),
			Payload: []byte(fmt.Sprintf(`{"machine":"m%d","variable":"actualX","value":%d.25}`, i%series, i)),
		}
	}
	return samples
}

// TestWALRecordEncodeAllocs guards the record encode on the durable append
// path: a 16-sample batch into a buffer with room allocates nothing (budget
// 0, no margin: the encoder only writes into the caller's buffer).
func TestWALRecordEncodeAllocs(t *testing.T) {
	samples := bridgeSamples(16, 4)
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendWALRecord(buf[:0], 1, "historian/h/factory/#", 7, samples)
	})
	if allocs > 0 {
		t.Fatalf("appendWALRecord of 16 samples: %v allocs, budget 0", allocs)
	}
}

// TestLegacyJSONWALRefused: a log holding a JSON-encoded record (the
// format before the binary codec) makes Open fail instead of guessing.
func TestLegacyJSONWALRefused(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte(`{"t":"2026-08-09T12:00:00Z","session":"s","seq":1,"samples":[{"s":"m","p":"MS41"}]}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := Open(dir, DurableOptions{}); err == nil {
		st.Close()
		t.Fatal("Open replayed a JSON WAL record")
	}
}

// TestPackedFloatWALRefused: a log holding a sample in the packed-float
// form (tag 0x01: a float64 in 8 bytes) makes Open fail with
// errWALPackedFloat; that form is no longer read.
func TestPackedFloatWALRefused(t *testing.T) {
	rec := []byte{walBinaryVersion}
	rec = binary.AppendUvarint(rec, zigzag(time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC).UnixNano()))
	rec = binary.AppendUvarint(rec, 1) // session "s"
	rec = append(rec, 's')
	rec = binary.AppendUvarint(rec, 1) // session seq
	rec = binary.AppendUvarint(rec, 1) // dictionary: "m"
	rec = binary.AppendUvarint(rec, 1)
	rec = append(rec, 'm')
	rec = binary.AppendUvarint(rec, 1) // one sample: dictionary index 0, 12.25 packed
	rec = binary.AppendUvarint(rec, 0)
	rec = append(rec, walPayloadPackedFloat)
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(12.25))

	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, DurableOptions{})
	if err == nil {
		st.Close()
		t.Fatal("Open replayed a packed-float WAL sample")
	}
	if !errors.Is(err, errWALPackedFloat) {
		t.Fatalf("Open: %v, want %v", err, errWALPackedFloat)
	}
}

// TestCompressedWALRecoveryEquivalence: a store recovered from the binary
// WAL is indistinguishable from one that never crashed, across numeric,
// object and non-numeric payloads (bare numbers in several spellings, a
// quoted number, a boolean: every one stored as the bytes it arrived as),
// sealed blocks and session state.
func TestCompressedWALRecoveryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	st, err := Open(dir, DurableOptions{SnapshotEvery: 1 << 30}) // everything replays from the WAL
	if err != nil {
		t.Fatal(err)
	}
	live := NewStore(0) // the never-crashed reference
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	spellings := []string{"1e-7", "1e3", "12.250", "-0", `"12.25"`, "true"}
	var seq uint64
	for i := 0; i < 3*blockSize; {
		n := 1 + rng.Intn(8)
		batch := make([]Sample, 0, n)
		ts := base.Add(time.Duration(i) * 20 * time.Millisecond)
		for j := 0; j < n; j++ {
			var payload string
			switch rng.Intn(4) {
			case 0:
				payload = fmt.Sprintf("%d.25", i+j)
			case 1:
				payload = fmt.Sprintf(`{"machine":"m","value":%d}`, i+j)
			case 2:
				payload = fmt.Sprintf("state-%d", i+j)
			case 3:
				payload = spellings[rng.Intn(len(spellings))]
			}
			batch = append(batch, Sample{Series: fmt.Sprintf("cell/m%d/x", (i+j)%3), Payload: []byte(payload)})
		}
		i += n
		seq++
		if err := st.AppendAcked("sess", seq, ts, batch); err != nil {
			t.Fatal(err)
		}
		if err := live.AppendAcked("sess", seq, ts, batch); err != nil {
			t.Fatal(err)
		}
	}
	st.Close() // crash point: recovery is WAL-only

	rec, err := Open(dir, DurableOptions{SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, want := rec.TotalAppended(), live.TotalAppended(); got != want {
		t.Fatalf("recovered %d points, want %d", got, want)
	}
	if got, want := rec.SessionSeq("sess"), live.SessionSeq("sess"); got != want {
		t.Fatalf("recovered session seq %d, want %d", got, want)
	}
	for _, series := range live.Series() {
		a := rec.Range(series, time.Time{}, base.Add(time.Hour))
		b := live.Range(series, time.Time{}, base.Add(time.Hour))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("series %s: recovered range differs (%d vs %d points)", series, len(a), len(b))
		}
		aggA, errA := rec.AggregateRange(series, base, base.Add(time.Hour))
		aggB, errB := live.AggregateRange(series, base, base.Add(time.Hour))
		if (errA == nil) != (errB == nil) || aggA != aggB {
			t.Fatalf("series %s: recovered aggregate %+v/%v, want %+v/%v", series, aggA, errA, aggB, errB)
		}
	}
}

// FuzzWALRecord: decoding arbitrary bytes as a WAL record never panics,
// and whatever appendWALRecord writes decodes back to the same batch.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{walBinaryVersion}, int64(0), "s", uint64(1), "cell/m1/x", "a", []byte("12.25"), []byte("raw"))
	f.Add(appendWALRecord(nil, 42, "", 0, []Sample{{Series: "a", Payload: []byte("1e3")}}), int64(-1), "", uint64(0), "", "", []byte{}, []byte("-0.5"))
	f.Add([]byte(`{"t":"2026-08-09T12:00:00Z","samples":[]}`), int64(1<<62), "sess", uint64(1<<63), "x", "x", []byte("NaN"), []byte("0"))
	f.Fuzz(func(t *testing.T, data []byte, ts int64, session string, seq uint64, s1, s2 string, p1, p2 []byte) {
		_, _ = decodeWALRecord(data)

		samples := []Sample{{Series: s1, Payload: p1}, {Series: s2, Payload: p2}, {Series: s1, Payload: p2}}
		rec, err := decodeWALRecord(appendWALRecord(nil, ts, session, seq, samples))
		if err != nil {
			t.Fatalf("encoded record rejected: %v", err)
		}
		if rec.T.UnixNano() != ts || rec.Session != session || rec.Seq != seq || len(rec.Samples) != len(samples) {
			t.Fatalf("header (%d, %q, %d, %d samples), want (%d, %q, %d, %d)",
				rec.T.UnixNano(), rec.Session, rec.Seq, len(rec.Samples), ts, session, seq, len(samples))
		}
		for i, sm := range rec.Samples {
			if sm.Series != samples[i].Series || !bytes.Equal(sm.Payload, samples[i].Payload) {
				t.Fatalf("sample %d: (%q, %q), want (%q, %q)", i, sm.Series, sm.Payload, samples[i].Series, samples[i].Payload)
			}
		}
	})
}
