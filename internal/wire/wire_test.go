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

// TestFrameRoundTrip pins the frame layout: magic, version, op, flags, then
// the uvarint body length, which must carry the exact body length.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := binMsg{Op: "pub", Topic: "factory/wc02/emco/actualX", Payload: []byte(`12.25`)}
	if err := w.WriteFrame(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	body := in.AppendBinaryBody(nil)
	want := append([]byte{Magic, BinaryVersion, binMsgOp, 0, byte(len(body))}, body...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame bytes\n  got  % x\n  want % x", buf.Bytes(), want)
	}
	var out binMsg
	if err := NewReader(&buf).ReadFrame(&out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Topic != in.Topic || string(out.Payload) != string(in.Payload) {
		t.Errorf("round trip mangled message: %+v", out)
	}
}

// TestFrameSingleWrite: header and body must arrive in one Write call so
// unbuffered writers issue one syscall per frame.
func TestFrameSingleWrite(t *testing.T) {
	cw := &countingWriter{}
	w := NewWriter(cw)
	if err := w.WriteFrame(&binMsg{Op: "pub", Topic: "a/b"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Errorf("frame used %d Write calls, want 1", cw.calls)
	}
}

type countingWriter struct {
	calls int
	bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return c.Buffer.Write(p)
}

func TestFrameTooLarge(t *testing.T) {
	big := binMsg{Op: "pub", Payload: make([]byte, MaxFrame)}
	if err := NewWriter(io.Discard).WriteFrame(&big); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("oversized frame error = %v", err)
	}
}

// TestReadFrameOversizedHeader: a piggybacked ack whose varint runs past 64
// bits is refused, not wrapped around.
func TestReadFrameOversizedHeader(t *testing.T) {
	hdr := []byte{Magic, BinaryVersion, binMsgOp, hdrAck}
	hdr = append(hdr, bytes.Repeat([]byte{0x80}, 10)...)
	hdr = append(hdr, 0x02)
	var out binMsg
	if err := NewReader(bytes.NewReader(hdr)).ReadFrame(&out); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("overflowing header varint error = %v", err)
	}
}

// TestReadFrameBadJSON: a length-prefixed JSON frame — or any stream whose
// next byte is not the magic — is refused, not decoded.
func TestReadFrameBadJSON(t *testing.T) {
	var out binMsg
	r := NewReader(bytes.NewReader([]byte{0, 0, 0, 2, '{', '}'}))
	if err := r.ReadFrame(&out); err == nil || !strings.Contains(err.Error(), "not a frame") {
		t.Errorf("JSON frame error = %v", err)
	}
}

// TestReadFramePooledBufferIsolation: a decoded message must not alias the
// pooled read buffer — decoding a second frame must not mutate the first.
func TestReadFramePooledBufferIsolation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	first := binMsg{Op: "pub", Topic: "a/b", Payload: []byte("payload-one")}
	second := binMsg{Op: "pub", Topic: "c/d", Payload: []byte("payload-TWO")}
	if err := w.WriteFrame(&first); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(&second); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var got1, got2 binMsg
	if err := r.ReadFrame(&got1); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadFrame(&got2); err != nil {
		t.Fatal(err)
	}
	if string(got1.Payload) != "payload-one" || got1.Topic != "a/b" {
		t.Errorf("first frame corrupted by second decode: %+v", got1)
	}
}

// TestWriterCoalesces: frames written while a flush is in flight must batch
// into later Write calls — total Write calls well under frame count.
func TestWriterCoalesces(t *testing.T) {
	slow := &slowWriter{release: make(chan struct{})}
	slow.started.L = &slow.mu
	w := NewWriter(slow)

	// First frame becomes the flusher and blocks in Write.
	errCh := make(chan error, 1)
	go func() { errCh <- w.WriteFrame(&binMsg{Op: "pub", Topic: "t/0"}) }()
	slow.started.L.Lock()
	for slow.inWrite == 0 {
		slow.started.Wait()
	}
	slow.started.L.Unlock()

	// These stage while the first Write is blocked.
	const queued = 50
	for i := 1; i <= queued; i++ {
		if err := w.WriteFrame(&binMsg{Op: "pub", Topic: fmt.Sprintf("t/%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(slow.release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	calls, frames := slow.stats()
	if frames != queued+1 {
		t.Fatalf("wrote %d frames, want %d", frames, queued+1)
	}
	if calls > 3 {
		t.Errorf("%d frames used %d Write calls, want coalescing (<=3)", frames, calls)
	}
}

type slowWriter struct {
	mu      sync.Mutex
	started sync.Cond
	inWrite int
	calls   int
	buf     bytes.Buffer
	release chan struct{}
}

func (s *slowWriter) stats() (calls, frames int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := NewReader(bytes.NewReader(s.buf.Bytes()))
	for {
		var m binMsg
		if r.ReadFrame(&m) != nil {
			return s.calls, frames
		}
		frames++
	}
}

func (s *slowWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.calls++
	s.inWrite++
	s.started.Broadcast()
	s.mu.Unlock()
	if s.release != nil {
		<-s.release
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// TestWriterStickyError: a write failure must stick — Flush surfaces it,
// and every WriteFrame after the failed batch fails too. (WriteFrame
// itself stages asynchronously, so the frame that triggered the failing
// batch may still return nil; the error lands on the next call.)
func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&failWriter{})
	if err := w.Err(); err != nil {
		t.Fatalf("fresh writer reports error: %v", err)
	}
	_ = w.WriteFrame(&binMsg{Op: "pub"})
	if err := w.Flush(); err == nil {
		t.Fatal("Flush must surface the write failure")
	}
	if err := w.WriteFrame(&binMsg{Op: "pub"}); err == nil {
		t.Fatal("error must be sticky")
	}
	if err := w.Err(); err == nil {
		t.Fatal("Err must report the sticky write failure")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

// TestWriterConcurrent: many producers against one coalescing writer must
// deliver every frame intact (race detector covers the locking).
func TestWriterConcurrent(t *testing.T) {
	cw := &countingWriter{}
	safe := &lockedWriter{w: cw}
	w := NewWriter(safe)
	const producers, each = 8, 200
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
			}
		}(p)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(cw.Buffer.Bytes()))
	frames := 0
	for {
		var m binMsg
		if err := r.ReadFrame(&m); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		frames++
	}
	if frames != producers*each {
		t.Errorf("decoded %d frames, want %d", frames, producers*each)
	}
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
