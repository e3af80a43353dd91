package historian

import (
	"bytes"
	"math"
	"strconv"
)

// Payloads are stored as the bytes they arrived as; this file reads the
// number a payload carries, once at ingest (Store.Append) and in
// Point.Float, for the rollups and the aggregate scans.

// pow10tab holds exact powers of ten for the fast decimal path.
var pow10tab = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

var valueKey = []byte(`"value"`)

// fastFloat is the ingest-path equivalent of Point.Float: it interprets the
// payload as a raw JSON number or an object with a numeric (or
// quoted-numeric) "value" field, without allocating on the common shapes.
// NaN and Inf cannot be produced (JSON has no literal for them and
// out-of-range exponents fail the parse), so rollups and aggregate scans
// only ever see finite values. It is marginally more lenient than
// encoding/json on malformed exponent forms.
func fastFloat(p []byte) (float64, bool) {
	i, end := 0, len(p)
	for i < end && asciiSpace(p[i]) {
		i++
	}
	for end > i && asciiSpace(p[end-1]) {
		end--
	}
	if i >= end {
		return 0, false
	}
	switch c := p[i]; {
	case c == '-' || (c >= '0' && c <= '9'):
		return parseJSONNumber(p[i:end])
	case c == '{':
		return objectValue(p[i:end])
	}
	return 0, false
}

func asciiSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// parseJSONNumber parses a JSON number. Mantissas of up to 15 digits with
// no exponent take an exact integer/power-of-ten path (both the mantissa
// and 10^k are exactly representable, so the single division rounds once —
// the same result strconv.ParseFloat produces); everything else falls back
// to strconv.
func parseJSONNumber(b []byte) (float64, bool) {
	i := 0
	neg := false
	if b[0] == '-' {
		neg = true
		i++
		if i == len(b) {
			return 0, false
		}
	}
	if b[i] == '0' && i+1 < len(b) && b[i+1] >= '0' && b[i+1] <= '9' {
		return 0, false // JSON forbids leading zeros
	}
	var mant uint64
	nd := 0
	frac := -1
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			nd++
			if frac >= 0 {
				frac++
			}
		case c == '.' && frac < 0 && nd > 0:
			frac = 0
		case c == 'e' || c == 'E':
			if nd == 0 || frac == 0 {
				return 0, false
			}
			return parseFloatSlow(b)
		default:
			return 0, false
		}
	}
	if nd == 0 || frac == 0 {
		return 0, false // "", "-", "5."
	}
	if nd > 15 {
		return parseFloatSlow(b)
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10tab[frac]
	}
	if neg {
		f = -f
	}
	return f, true
}

func parseFloatSlow(b []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

// objectValue extracts a numeric "value" field from a JSON object by
// scanning the byte structure — the shapes the stack's bridge and monitor
// publish ({"machine":...,"variable":...,"value":12.25}) resolve without a
// json.Unmarshal. The scan tracks brace/bracket depth and string spans, so
// only a top-level "value" key matches: nested objects ({"a":{"value":5}})
// and the key text embedded inside another string stay non-numeric, keeping
// this a strict subset of the full-parse fallback in Point.Float.
func objectValue(p []byte) (float64, bool) {
	depth := 0
	for i := 0; i < len(p); {
		switch c := p[i]; c {
		case '{', '[':
			depth++
			i++
		case '}', ']':
			depth--
			i++
		case '"':
			j := i + 1
			escaped := false
			for j < len(p) && p[j] != '"' {
				if p[j] == '\\' {
					escaped = true
					j++ // skip the escaped byte; \" stays inside the string
				}
				j++
			}
			if j >= len(p) {
				return 0, false // unterminated string: malformed payload
			}
			if depth == 1 && !escaped && bytes.Equal(p[i:j+1], valueKey) {
				k := j + 1
				for k < len(p) && asciiSpace(p[k]) {
					k++
				}
				if k < len(p) && p[k] == ':' {
					return keyedValue(p, k+1)
				}
			}
			i = j + 1
		default:
			i++
		}
	}
	return 0, false
}

// keyedValue parses the value that follows a matched `"value":` key at
// offset i — a JSON number, or a quoted numeric string.
func keyedValue(p []byte, i int) (float64, bool) {
	for i < len(p) && asciiSpace(p[i]) {
		i++
	}
	if i >= len(p) {
		return 0, false
	}
	switch c := p[i]; {
	case c == '"':
		j := i + 1
		for j < len(p) && p[j] != '"' && p[j] != '\\' {
			j++
		}
		if j >= len(p) || p[j] != '"' {
			return 0, false // escapes or truncation: not a plain quoted number
		}
		f, err := strconv.ParseFloat(string(p[i+1:j]), 64)
		if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
			return 0, false
		}
		return f, true
	case c == '-' || (c >= '0' && c <= '9'):
		j := i
		for j < len(p) && numChar(p[j]) {
			j++
		}
		return parseJSONNumber(p[i:j])
	}
	return 0, false
}

func numChar(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// floorDiv and ceilDiv are floored/ceiled integer division — bucket-index
// math that must stay correct for pre-1970 (negative-nano) timestamps like
// the zero time.Time callers pass as an open lower bound.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }
