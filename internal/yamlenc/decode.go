package yamlenc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Unmarshal parses a block-style YAML document produced by Marshal into
// map[string]any / []any / scalar values.
func Unmarshal(data []byte) (any, error) {
	docs, err := UnmarshalDocs(data)
	if err != nil {
		return nil, err
	}
	switch len(docs) {
	case 0:
		return nil, nil
	case 1:
		return docs[0], nil
	default:
		return nil, fmt.Errorf("yamlenc: %d documents where one was expected", len(docs))
	}
}

// UnmarshalDocs parses a multi-document stream separated by "---" lines.
func UnmarshalDocs(data []byte) ([]any, error) {
	lines := splitLines(string(data))
	var docs []any
	var cur []parsedLine
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		d := &decoder{lines: cur}
		v, err := d.parseBlock(0)
		if err != nil {
			return err
		}
		if ln, more := d.peekLine(); more {
			return fmt.Errorf("yamlenc: line %d: content after the end of the document's value", ln.num)
		}
		docs = append(docs, v)
		cur = nil
		return nil
	}
	for _, ln := range lines {
		if strings.TrimSpace(ln.text) == "---" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		cur = append(cur, ln)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return docs, nil
}

type parsedLine struct {
	num    int // 1-based source line
	indent int // count of leading spaces
	text   string
}

func splitLines(src string) []parsedLine {
	raw := strings.Split(src, "\n")
	var out []parsedLine
	for i, line := range raw {
		trimmed := strings.TrimRight(line, " \t\r")
		stripped := strings.TrimSpace(trimmed)
		if stripped == "" || strings.HasPrefix(stripped, "#") {
			continue
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		out = append(out, parsedLine{num: i + 1, indent: indent, text: trimmed})
	}
	return out
}

type decoder struct {
	lines []parsedLine
	pos   int
}

func (d *decoder) peekLine() (parsedLine, bool) {
	if d.pos >= len(d.lines) {
		return parsedLine{}, false
	}
	return d.lines[d.pos], true
}

// parseBlock parses a mapping or sequence whose items start at exactly
// the given indentation.
func (d *decoder) parseBlock(indent int) (any, error) {
	ln, ok := d.peekLine()
	if !ok {
		return nil, nil
	}
	body := strings.TrimLeft(ln.text, " ")
	if strings.HasPrefix(body, "- ") || body == "-" {
		return d.parseSeq(indent)
	}
	// Single-scalar or flow-empty documents ("{}", "[]", "text").
	if _, _, err := splitKey(body, ln.num); err != nil {
		d.pos++
		return scalarValue(body), nil
	}
	return d.parseMap(indent)
}

func (d *decoder) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for {
		ln, ok := d.peekLine()
		if !ok || ln.indent < indent {
			return m, nil
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yamlenc: line %d: unexpected indentation", ln.num)
		}
		body := ln.text[ln.indent:]
		if strings.HasPrefix(body, "- ") || body == "-" {
			return nil, fmt.Errorf("yamlenc: line %d: sequence item in mapping context", ln.num)
		}
		key, rest, err := splitKey(body, ln.num)
		if err != nil {
			return nil, err
		}
		d.pos++
		if rest != "" {
			m[key] = scalarValue(rest)
			continue
		}
		// Value is nested block (or absent -> null).
		next, ok := d.peekLine()
		if !ok || next.indent <= indent {
			// "key:" with nothing nested — but sequences may sit at the
			// same indent as the key (Kubernetes style).
			if ok && next.indent == indent {
				nb := next.text[next.indent:]
				if strings.HasPrefix(nb, "- ") || nb == "-" {
					v, err := d.parseSeq(indent)
					if err != nil {
						return nil, err
					}
					m[key] = v
					continue
				}
			}
			m[key] = nil
			continue
		}
		v, err := d.parseBlock(next.indent)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
}

func (d *decoder) parseSeq(indent int) (any, error) {
	var seq []any
	for {
		ln, ok := d.peekLine()
		if !ok || ln.indent < indent {
			return seq, nil
		}
		body := ln.text[ln.indent:]
		if ln.indent != indent || (!strings.HasPrefix(body, "- ") && body != "-") {
			return seq, nil
		}
		rest := strings.TrimPrefix(body, "-")
		rest = strings.TrimPrefix(rest, " ")
		if rest == "" {
			// Nested block under the dash.
			d.pos++
			next, ok := d.peekLine()
			if !ok || next.indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, err := d.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		// Item with inline content: scalar, or first key of a mapping.
		if k, r, err := splitKey(rest, ln.num); err == nil {
			// Mapping item: rewrite the line as the first key at the
			// virtual indent and parse the mapping.
			itemIndent := ln.indent + 2
			d.lines[d.pos] = parsedLine{num: ln.num, indent: itemIndent, text: indentStrSpaces(itemIndent) + rest}
			_ = k
			_ = r
			v, err := d.parseMap(itemIndent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		d.pos++
		seq = append(seq, scalarValue(rest))
	}
}

func indentStrSpaces(n int) string { return strings.Repeat(" ", n) }

// splitKey splits "key: value" or "key:"; returns an error when the text is
// not a mapping entry (used by the sequence parser to detect plain scalars).
func splitKey(s string, lineNum int) (key, rest string, err error) {
	if strings.HasPrefix(s, "\"") {
		// Quoted key.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '"' && s[i-1] != '\\' {
				end = i
				break
			}
		}
		if end < 0 || end+1 >= len(s) || s[end+1] != ':' {
			return "", "", fmt.Errorf("yamlenc: line %d: malformed quoted key", lineNum)
		}
		k, uerr := strconv.Unquote(s[:end+1])
		if uerr != nil {
			return "", "", fmt.Errorf("yamlenc: line %d: %v", lineNum, uerr)
		}
		return k, strings.TrimSpace(s[end+2:]), nil
	}
	idx := -1
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		if c == '"' || c == '\'' {
			inQuote = c
			continue
		}
		if c == ':' && (i+1 == len(s) || s[i+1] == ' ') {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", "", fmt.Errorf("yamlenc: line %d: not a mapping entry", lineNum)
	}
	return strings.TrimSpace(s[:idx]), strings.TrimSpace(s[idx+1:]), nil
}

// unquote interprets s, a double-quoted scalar with its quotes, exactly as
// strconv.Unquote does: the same value, and !ok for whatever it rejects (a
// bare quote or newline inside, a malformed escape). strconv.Unquote builds
// the value in a buffer of 1.5× the input and then copies it into a string;
// the ConfigMap scalars of a manifest are whole JSON documents, so that is
// 2.5× every machine's configuration per decode. Here the value is written
// once, into one buffer of the input's length — an escape never takes more
// room decoded than written — which the returned string then owns. (Only a
// byte of invalid UTF-8 grows, into U+FFFD; the builder makes room.)
func unquote(s string) (value string, ok bool) {
	body := s[1 : len(s)-1]
	if !strings.ContainsAny(body, "\\\"\n") && utf8.ValidString(body) {
		return body, true
	}
	var b strings.Builder
	b.Grow(len(body))
	for {
		run, _, escaped := strings.Cut(body, `\`)
		if strings.IndexByte(run, '"') >= 0 || strings.IndexByte(run, '\n') >= 0 {
			return "", false
		}
		if utf8.ValidString(run) {
			b.WriteString(run)
		} else {
			for _, r := range run { // an invalid byte reads as U+FFFD
				b.WriteRune(r)
			}
		}
		if !escaped {
			return b.String(), true
		}
		r, multibyte, rest, err := strconv.UnquoteChar(body[len(run):], '"')
		if err != nil {
			return "", false
		}
		if r < utf8.RuneSelf || !multibyte {
			b.WriteByte(byte(r)) // \xNN and \NNN name a byte, not a rune
		} else {
			b.WriteRune(r)
		}
		body = rest
	}
}

// scalarValue interprets an inline scalar.
func scalarValue(s string) any {
	switch s {
	case "null", "~":
		return nil
	case "true":
		return true
	case "false":
		return false
	case "{}":
		return map[string]any{}
	case "[]":
		return []any{}
	}
	if strings.HasPrefix(s, "\"") && strings.HasSuffix(s, "\"") && len(s) >= 2 {
		if u, ok := unquote(s); ok {
			return u
		}
	}
	if strings.HasPrefix(s, "'") && strings.HasSuffix(s, "'") && len(s) >= 2 {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	// Numeric fast path: only strings that can plausibly be numbers reach
	// ParseInt/ParseFloat (long embedded-JSON scalars would otherwise pay
	// a full parse attempt each).
	if len(s) <= 64 && (s[0] == '-' || s[0] == '+' || (s[0] >= '0' && s[0] <= '9')) {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return s
}
