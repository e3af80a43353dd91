// Package wire implements the framing shared by the broker and OPC UA
// transports: compact binary frames (binary.go) that open with a magic
// byte and a version byte, carry a one-byte op chosen by the protocol
// package, and may piggyback cumulative acks in their header. The package
// owns the hot-path mechanics both transports used to duplicate —
// size-classed pooled read/scratch buffers and a flush-coalescing Writer
// for connection fan-out paths that batch-coalesces piggybacked acks.
package wire

import "sync"

// MaxFrame bounds a single message (4 MiB) to protect against corrupt
// length prefixes.
const MaxFrame = 4 << 20

// maxPooledBuf caps the capacity of buffers returned to the pools so one
// jumbo frame does not pin megabytes for the connection's lifetime. It is
// also the largest read-buffer size class: frames up to 1 MiB (batch
// replays, browse trees) reuse pooled buffers instead of allocating fresh
// on every encode/read.
const maxPooledBuf = 1 << 20

// bufClasses are the read/scratch buffer size classes. getBuf picks the
// smallest class that fits; putBuf files a buffer under the largest class
// its capacity covers, so a buffer that grew mid-class is promoted rather
// than dropped. Buffers beyond the largest class are never pooled.
var bufClasses = [...]int{4 << 10, 64 << 10, maxPooledBuf}

var bufPools [len(bufClasses)]sync.Pool

func init() {
	for i := range bufPools {
		size := bufClasses[i]
		bufPools[i].New = func() any {
			b := make([]byte, 0, size)
			return &b
		}
	}
}

// getBuf returns a pooled buffer with capacity ≥ n (zero length). Buffers
// larger than the top size class are freshly allocated and never pooled.
func getBuf(n int) *[]byte {
	for i, c := range bufClasses {
		if n <= c {
			return bufPools[i].Get().(*[]byte)
		}
	}
	b := make([]byte, 0, n)
	return &b
}

// putBuf returns a buffer obtained from getBuf (possibly regrown) to the
// pool serving its capacity class.
func putBuf(bp *[]byte) {
	c := cap(*bp)
	if c > 2*maxPooledBuf {
		return
	}
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] {
			*bp = (*bp)[:0]
			bufPools[i].Put(bp)
			return
		}
	}
}
