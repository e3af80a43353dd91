// Package yamlenc implements the YAML subset needed to emit and re-read
// Kubernetes manifests without third-party dependencies.
//
// The encoder renders exactly the value shapes the decoder in decode.go
// yields — map[string]any (keys sorted for determinism), []any, string,
// bool, int, int64, float64 and nil — as block-style YAML; any other type
// is an error. Round trip (Marshal -> Unmarshal) is guaranteed for those
// shapes; arbitrary external YAML (anchors, flow style, tags) is out of
// scope by design.
package yamlenc

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Marshal renders v as a block-style YAML document (no leading "---").
func Marshal(v any) ([]byte, error) {
	return appendValue(nil, v, 0)
}

// MarshalDocs renders several values as a multi-document YAML stream
// separated by "---" markers.
func MarshalDocs(docs ...any) ([]byte, error) {
	var b []byte
	var err error
	for i, d := range docs {
		if i > 0 {
			b = append(b, "---\n"...)
		}
		if b, err = appendValue(b, d, 0); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendIndent(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, "  "...)
	}
	return b
}

// appendValue writes a document-level (or nested block) value at the given
// indentation.
func appendValue(b []byte, v any, indent int) ([]byte, error) {
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 0 {
			return append(b, "{}\n"...), nil
		}
		return appendMap(b, x, indent, false)
	case []any:
		return appendSeq(b, x, indent)
	}
	b, err := appendScalar(b, v)
	return append(b, '\n'), err
}

// appendMap writes the non-empty mapping m, one key per line at indent.
// With bare the first key takes no indentation: it rides on a "- ".
func appendMap(b []byte, m map[string]any, indent int, bare bool) ([]byte, error) {
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var err error
	for i, k := range keys {
		if i > 0 || !bare {
			b = appendIndent(b, indent)
		}
		b = appendString(b, k)
		b = append(b, ':')
		switch v := m[k].(type) {
		case map[string]any:
			if len(v) == 0 {
				b = append(b, " {}\n"...)
				continue
			}
			b, err = appendMap(append(b, '\n'), v, indent+1, false)
		case []any:
			if len(v) == 0 {
				b = append(b, " []\n"...)
				continue
			}
			// Kubernetes style: the items sit at the key's indentation.
			b, err = appendSeq(append(b, '\n'), v, indent)
		default:
			b, err = appendScalar(append(b, ' '), v)
			b = append(b, '\n')
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendSeq writes a block sequence whose dashes sit at indent.
func appendSeq(b []byte, s []any, indent int) ([]byte, error) {
	if len(s) == 0 {
		return append(b, "[]\n"...), nil
	}
	var err error
	for _, item := range s {
		b = append(appendIndent(b, indent), "- "...)
		switch v := item.(type) {
		case map[string]any:
			if len(v) == 0 {
				b = append(b, "{}\n"...)
				continue
			}
			b, err = appendMap(b, v, indent+1, true)
		case []any:
			if len(v) == 0 {
				b = append(b, "[]\n"...)
				continue
			}
			b, err = appendSeq(append(b, '\n'), v, indent+1)
		default:
			b, err = appendScalar(b, v)
			b = append(b, '\n')
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendScalar(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return appendString(b, x), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case int:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case float64:
		start := len(b)
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
		if !bytes.ContainsAny(b[start:], ".eEIN") { // I: ±Inf, N: NaN
			b = append(b, ".0"...) // stays a float when read back
		}
		return b, nil
	}
	return b, fmt.Errorf("yamlenc: cannot encode %T", v)
}

// appendString writes s as a plain scalar, or double-quoted when a plain
// one would be ambiguous: empty, surrounded by spaces, holding special
// characters, or reading as a number, boolean or null.
func appendString(b []byte, s string) []byte {
	if plain(s) {
		return append(b, s...)
	}
	return strconv.AppendQuote(b, s)
}

func plain(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if unicode.IsSpace(r) && r != ' ' || r == utf8.RuneError {
			return false
		}
		switch r {
		case ':', '#', '{', '}', '[', ']', ',', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`':
			return false
		case '-':
			if i == 0 && (len(s) == 1 || s[1] == ' ') {
				return false
			}
		case ' ':
			if i == 0 || i == len(s)-1 {
				return false
			}
		case '?':
			if i == 0 {
				return false
			}
		}
	}
	return !reserved(s) && !number(s)
}

// reserved reports whether s reads as a YAML boolean or null in any letter
// case. Only ASCII letters lower-case to the words' letters, so folding the
// ASCII bytes alone decides it.
func reserved(s string) bool {
	if len(s) > 5 {
		return false
	}
	var low [5]byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	switch string(low[:len(s)]) {
	case "true", "false", "null", "~", "yes", "no", "on", "off":
		return true
	}
	return false
}

// number reports whether strconv.ParseFloat accepts s. Past an optional
// sign, only a digit, a dot or the first letter of "inf", "infinity" and
// "nan" can start such a string, and the parse, whose error allocates, runs
// only for those ("--config=..." never reaches it).
func number(s string) bool {
	t := s
	if t[0] == '+' || t[0] == '-' {
		t = t[1:]
	}
	if t == "" {
		return false
	}
	switch c := t[0]; {
	case c == '.' || '0' <= c && c <= '9':
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		if len(t) != 3 && len(t) != 8 {
			return false
		}
	default:
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
