package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Writer is a concurrency-safe framed writer with flush coalescing: frames
// are staged in a pending buffer, and the first stage with no flush in
// flight spawns a short-lived flusher goroutine that repeatedly swaps the
// pending buffer out and writes it with one Write (= one Flush) per batch.
// Frames queued while a Write syscall is in flight ride the next batch, so
// under fan-out load the batch window adapts to the downstream write
// latency without adding more than a scheduler hop of latency when the
// connection is idle.
//
// Cumulative acks staged with QueueAck coalesce (max seq per subscription)
// and ride the next data frame's header as a piggyback, or flush as tiny
// ack-only frames when no data frame is due — acked sessions stop paying a
// full frame per window advance.
//
// Write errors are sticky: the first failure is returned to the flushing
// goroutine and every subsequent WriteFrame, which is the signal the
// connection pumps use to stop.
type Writer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	w        io.Writer
	pending  []byte
	spare    []byte
	flushing bool
	err      error
	acks     map[int]uint64 // staged cumulative acks: subID → max seq
}

// maxPending is the soft cap on staged bytes: producers block (waiting on
// the in-flight flush) once the backlog passes it, restoring the
// backpressure an unbatched writer gets from the socket for free.
const maxPending = 1 << 20

// NewWriter wraps w (typically a net.Conn) in a coalescing framed writer.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: w}
	cw.cond = sync.NewCond(&cw.mu)
	return cw
}

// WriteFrame encodes f as one frame and queues it for writing. It returns
// once the frame is staged and a flusher is responsible for it; a sticky
// write error from a previous batch fails the call. A frame reporting the
// reserved op 0 is refused.
func (w *Writer) WriteFrame(f Frame) error {
	op := f.WireOp()
	if op == opNone {
		return fmt.Errorf("wire: %T has no op", f)
	}
	bp := getBuf(512)
	body := f.AppendBinaryBody((*bp)[:0])
	*bp = body
	if len(body) > MaxFrame {
		putBuf(bp)
		return fmt.Errorf("wire: frame too large (%d bytes)", len(body))
	}
	err := w.stage(func() {
		w.appendFrameLocked(op, body)
	})
	putBuf(bp)
	return err
}

// WriteFrameParts stages one frame assembled from segments — the
// encode-once fan-out path: the shared segment of a published message is
// encoded once and every subscriber connection appends only its tiny
// per-subscriber prefix around it.
func (w *Writer) WriteFrameParts(op byte, segs ...[]byte) error {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	if n > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	return w.stage(func() {
		w.appendFrameLocked(op, segs...)
	})
}

// QueueAck stages a cumulative ack for subID, coalescing with any ack
// already staged for it (max seq wins — acks are cumulative). The ack
// piggybacks on the next staged frame's header or flushes as an ack-only
// frame.
func (w *Writer) QueueAck(subID int, seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.acks == nil {
		w.acks = map[int]uint64{}
	}
	if seq > w.acks[subID] {
		w.acks[subID] = seq
	}
	if !w.flushing {
		w.flushing = true
		go w.flusher()
	}
	return nil
}

// stage runs enc (which appends one complete frame to w.pending) under the
// lock, after waiting out backpressure, then ensures a flusher goroutine is
// responsible for the staged bytes. The flush is asynchronous on purpose:
// the staging goroutine keeps producing while the flusher batches whatever
// accumulated into one Write, so even a single-producer connection (and a
// single-core box, where an inline flush would mean one syscall per frame)
// amortizes syscalls across the natural backlog. Write errors are sticky
// and surface on the next call.
func (w *Writer) stage(enc func()) error {
	w.mu.Lock()
	for w.err == nil && w.flushing && len(w.pending) >= maxPending {
		w.cond.Wait()
	}
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	enc()
	if !w.flushing {
		w.flushing = true
		go w.flusher()
	}
	w.mu.Unlock()
	return nil
}

// flusher drains pending frames and staged acks, then exits; stage spawns a
// new one whenever frames are staged with no flusher in flight. The
// goroutine is short-lived by design — no lifecycle to manage on close, and
// its spawn cost is amortized over the whole batch.
func (w *Writer) flusher() {
	w.mu.Lock()
	w.flushLocked()
	w.flushing = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// appendFrameLocked appends one frame to pending, piggybacking one staged
// cumulative ack in the header when available. Callers hold w.mu.
func (w *Writer) appendFrameLocked(op byte, segs ...[]byte) {
	var hflags byte
	var ackSub int
	var ackSeq uint64
	if len(w.acks) > 0 {
		for id, seq := range w.acks {
			ackSub, ackSeq = id, seq
			delete(w.acks, id)
			break
		}
		hflags |= hdrAck
	}
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	w.pending = append(w.pending, Magic, BinaryVersion, op, hflags)
	if hflags&hdrAck != 0 {
		w.pending = binary.AppendUvarint(w.pending, uint64(ackSub))
		w.pending = binary.AppendUvarint(w.pending, ackSeq)
	}
	w.pending = binary.AppendUvarint(w.pending, uint64(n))
	for _, s := range segs {
		w.pending = append(w.pending, s...)
	}
}

// drainAcksLocked flushes every staged ack that found no data frame to
// piggyback on as an ack-only frame (op 0, empty body). Callers hold w.mu.
func (w *Writer) drainAcksLocked() {
	for id, seq := range w.acks {
		w.pending = append(w.pending, Magic, BinaryVersion, opNone, hdrAck)
		w.pending = binary.AppendUvarint(w.pending, uint64(id))
		w.pending = binary.AppendUvarint(w.pending, seq)
		w.pending = binary.AppendUvarint(w.pending, 0)
		delete(w.acks, id)
	}
}

// Err returns the writer's sticky error: nil until a batch write fails,
// then that first failure forever. Connection health checks consult it to
// catch a write-dead connection whose read side has not yet noticed.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Flush writes any staged frames and acks. WriteFrame flushes on its own;
// Flush only matters for graceful teardown paths that must not leave
// frames staged.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.flushing {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	w.flushing = true
	err := w.flushLocked()
	w.flushing = false
	w.cond.Broadcast()
	return err
}

// flushLocked drains the pending buffer and staged acks, one Write per
// batch, releasing the lock around each syscall so producers stage the
// next batch concurrently. Callers hold w.mu and have set w.flushing.
func (w *Writer) flushLocked() error {
	for (len(w.pending) > 0 || len(w.acks) > 0) && w.err == nil {
		w.drainAcksLocked()
		batch := w.pending
		w.pending = w.spare[:0]
		w.spare = nil
		w.mu.Unlock()
		_, err := w.w.Write(batch)
		w.mu.Lock()
		if err != nil {
			w.err = err
			break
		}
		if cap(batch) <= maxPending {
			w.spare = batch[:0]
		}
		// Wake producers blocked on the backlog cap before the next batch.
		w.cond.Broadcast()
	}
	return w.err
}
