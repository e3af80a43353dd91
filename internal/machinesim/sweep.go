package machinesim

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Prepare binds the ordered variable list that Sweep reads to this
// connection (MPREP). The machine validates the list once; an unknown name
// fails with a *ServiceError and leaves any earlier list in place. The
// binding lives in the machine's end of the connection, so a redialed
// connection must be prepared again.
func (c *Conn) Prepare(names []string) error {
	data, err := json.Marshal(names)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.exchange(append(append([]byte("MPREP "), data...), '\n'), &c.line); err != nil {
		return err
	}
	c.prepared = len(names)
	return nil
}

var mgetRequest = []byte("MGET\n")

// Sweep reads every prepared variable in one round trip (MGET) and returns
// their values in list order, each the raw JSON scalar the machine sent.
// The slices alias a buffer the connection reuses: they are valid until the
// next Sweep, and Sweep must not run concurrently with itself. Other calls
// may share the connection meanwhile.
func (c *Conn) Sweep() ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.exchange(mgetRequest, &c.sweepLine)
	if err != nil {
		return nil, err
	}
	c.vals, err = splitScalars(c.vals[:0], body)
	if err != nil {
		return nil, fmt.Errorf("machinesim driver: sweep response: %w", err)
	}
	if len(c.vals) != c.prepared {
		return nil, fmt.Errorf("machinesim driver: sweep returned %d values, %d prepared", len(c.vals), c.prepared)
	}
	return c.vals, nil
}

var errNotScalarArray = errors.New("not a JSON array of scalars")

// splitScalars appends to dst the elements of arr, a JSON array whose
// elements are all strings, numbers, booleans or null, as sub-slices of
// arr. It accepts exactly the inputs encoding/json accepts as such an array
// and allocates only to grow dst.
func splitScalars(dst [][]byte, arr []byte) ([][]byte, error) {
	i := skipSpace(arr, 0)
	if i == len(arr) || arr[i] != '[' {
		return dst, errNotScalarArray
	}
	i = skipSpace(arr, i+1)
	if i < len(arr) && arr[i] == ']' {
		return dst, endOfArray(arr, i+1)
	}
	for {
		end := scanScalar(arr, i)
		if end < 0 {
			return dst, errNotScalarArray
		}
		dst = append(dst, arr[i:end:end])
		i = skipSpace(arr, end)
		if i == len(arr) {
			return dst, errNotScalarArray
		}
		switch arr[i] {
		case ',':
			i = skipSpace(arr, i+1)
		case ']':
			return dst, endOfArray(arr, i+1)
		default:
			return dst, errNotScalarArray
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func endOfArray(b []byte, i int) error {
	if skipSpace(b, i) != len(b) {
		return errNotScalarArray
	}
	return nil
}

// scanScalar returns the index just past the JSON scalar starting at b[i],
// or -1 if none starts there.
func scanScalar(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i+1)
	case c == '-' || (c >= '0' && c <= '9'):
		return scanNumber(b, i)
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == 'n':
		return scanLiteral(b, i, "null")
	}
	return -1
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanString scans a string body from just past its opening quote.
func scanString(b []byte, i int) int {
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			i++
			if i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !(h >= '0' && h <= '9' || h >= 'a' && h <= 'f' || h >= 'A' && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
		i++
	}
	return -1
}

// scanNumber scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// digits skips one or more digits, or returns -1 if there is none.
func digits(b []byte, i int) int {
	if j := skipDigits(b, i); j > i {
		return j
	}
	return -1
}
