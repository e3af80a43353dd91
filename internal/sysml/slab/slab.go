// Package slab hands out values and slices from chunks, so that the SysML
// front end allocates per model, not per token or node. A slab is a plain
// []T owned by one ParseFile or Resolve call; a value taken from it keeps
// its whole chunk alive, and nothing is shared between calls.
package slab

// New returns a pointer to a zeroed T from the chunk in *s, starting a
// new chunk when it is full. Chunks double from 16 up to limit elements, so
// a small model does not pay for a full chunk of every kind.
func New[T any](s *[]T, limit int) *T {
	return &Make(s, limit, 1)[0]
}

// Make returns n zeroed elements from the chunk in *s, or nil for n == 0.
// The result is capped at its length, so an append by its holder copies
// instead of overwriting the next slice in the chunk.
func Make[T any](s *[]T, limit, n int) []T {
	if n == 0 {
		return nil
	}
	c := *s
	if cap(c)-len(c) < n {
		c = make([]T, 0, chunkCap(cap(c), n, limit))
	}
	i := len(c)
	c = c[:i+n]
	*s = c
	return c[i : i+n : i+n]
}

// Append returns a copy of list followed by more, made with Make; list
// itself is left as it was.
func Append[T any](s *[]T, limit int, list []T, more ...T) []T {
	out := Make(s, limit, len(list)+len(more))
	copy(out[copy(out, list):], more)
	return out
}

// chunkCap sizes the next chunk: twice the last, between 16 and limit,
// and never less than need.
func chunkCap(last, need, limit int) int {
	n := 2 * last
	if n < 16 {
		n = 16
	}
	if n > limit {
		n = limit
	}
	if n < need {
		n = need
	}
	return n
}
