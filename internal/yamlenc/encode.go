// Package yamlenc implements the YAML subset needed to emit and re-read
// Kubernetes manifests without third-party dependencies.
//
// The encoder marshals Go structs (honoring `yaml:"name,omitempty"` tags),
// maps (keys sorted for determinism), slices and scalars into block-style
// YAML. The decoder in decode.go parses the same subset back. Round-trip
// (Marshal -> Unmarshal) is guaranteed for the value shapes the k8s package
// produces; arbitrary external YAML (anchors, flow style, tags) is out of
// scope by design.
package yamlenc

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Marshal renders v as a block-style YAML document (no leading "---").
func Marshal(v any) ([]byte, error) {
	var b strings.Builder
	if err := encodeValue(&b, reflect.ValueOf(v), 0, false); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// MarshalDocs renders several values as a multi-document YAML stream
// separated by "---" markers.
func MarshalDocs(docs ...any) ([]byte, error) {
	var b strings.Builder
	for i, d := range docs {
		if i > 0 {
			b.WriteString("---\n")
		}
		out, err := Marshal(d)
		if err != nil {
			return nil, err
		}
		b.Write(out)
	}
	return []byte(b.String()), nil
}

func indentStr(n int) string { return strings.Repeat("  ", n) }

// encodeValue writes v at the given indentation. inline indicates the value
// follows a "key:" on the same line when scalar.
func encodeValue(b *strings.Builder, v reflect.Value, indent int, inline bool) error {
	v = deref(v)
	if !v.IsValid() {
		b.WriteString("null\n")
		return nil
	}
	switch v.Kind() {
	case reflect.Map:
		return encodeMap(b, v, indent)
	case reflect.Struct:
		return encodeStruct(b, v, indent)
	case reflect.Slice, reflect.Array:
		return encodeSeq(b, v, indent)
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("null\n")
			return nil
		}
		return encodeValue(b, v.Elem(), indent, inline)
	default:
		b.WriteString(scalarString(v))
		b.WriteByte('\n')
		return nil
	}
}

func deref(v reflect.Value) reflect.Value {
	for v.IsValid() && v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return reflect.Value{}
		}
		v = v.Elem()
	}
	return v
}

func isCompound(v reflect.Value) bool {
	v = deref(v)
	if !v.IsValid() {
		return false
	}
	switch v.Kind() {
	case reflect.Map, reflect.Struct:
		return !isEmptyCompound(v)
	case reflect.Slice, reflect.Array:
		return v.Len() > 0
	case reflect.Interface:
		return !v.IsNil() && isCompound(v.Elem())
	}
	return false
}

func isEmptyCompound(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Map:
		return v.Len() == 0
	case reflect.Struct:
		fields, _ := structFields(v)
		return len(fields) == 0
	}
	return false
}

type fieldInfo struct {
	name  string
	value reflect.Value
}

func structFields(v reflect.Value) ([]fieldInfo, error) {
	t := v.Type()
	var out []fieldInfo
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Name
		omitempty := false
		if tag, ok := f.Tag.Lookup("yaml"); ok {
			parts := strings.Split(tag, ",")
			if parts[0] == "-" {
				continue
			}
			if parts[0] != "" {
				name = parts[0]
			}
			for _, opt := range parts[1:] {
				if opt == "omitempty" {
					omitempty = true
				}
			}
		} else {
			// Default to lowerCamel of the field name, matching k8s style.
			name = lowerFirst(name)
		}
		fv := v.Field(i)
		if omitempty && isZero(fv) {
			continue
		}
		// Inline embedded structs without a tag name change? Keep simple:
		// embedded fields are encoded like named fields.
		out = append(out, fieldInfo{name: name, value: fv})
	}
	return out, nil
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

func isZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Map, reflect.Slice:
		return v.Len() == 0
	case reflect.Pointer, reflect.Interface:
		return v.IsNil()
	}
	return v.IsZero()
}

func encodeStruct(b *strings.Builder, v reflect.Value, indent int) error {
	fields, err := structFields(v)
	if err != nil {
		return err
	}
	if len(fields) == 0 {
		b.WriteString("{}\n")
		return nil
	}
	for _, f := range fields {
		if err := encodeKeyed(b, f.name, f.value, indent); err != nil {
			return err
		}
	}
	return nil
}

func encodeMap(b *strings.Builder, v reflect.Value, indent int) error {
	if v.Len() == 0 {
		b.WriteString("{}\n")
		return nil
	}
	keys := v.MapKeys()
	strKeys := make([]string, len(keys))
	byKey := make(map[string]reflect.Value, len(keys))
	for i, k := range keys {
		ks := fmt.Sprint(k.Interface())
		strKeys[i] = ks
		byKey[ks] = v.MapIndex(k)
	}
	sort.Strings(strKeys)
	for _, k := range strKeys {
		if err := encodeKeyed(b, k, byKey[k], indent); err != nil {
			return err
		}
	}
	return nil
}

func encodeKeyed(b *strings.Builder, key string, val reflect.Value, indent int) error {
	b.WriteString(indentStr(indent))
	b.WriteString(keyString(key))
	b.WriteByte(':')
	val = deref(val)
	if !val.IsValid() {
		b.WriteString(" null\n")
		return nil
	}
	if val.Kind() == reflect.Interface {
		if val.IsNil() {
			b.WriteString(" null\n")
			return nil
		}
		val = val.Elem()
		val = deref(val)
	}
	if isCompound(val) {
		b.WriteByte('\n')
		if deref(val).Kind() == reflect.Slice || deref(val).Kind() == reflect.Array {
			return encodeSeq(b, deref(val), indent)
		}
		return encodeValue(b, val, indent+1, false)
	}
	b.WriteByte(' ')
	switch val.Kind() {
	case reflect.Map, reflect.Struct:
		b.WriteString("{}\n")
	case reflect.Slice, reflect.Array:
		b.WriteString("[]\n")
	default:
		b.WriteString(scalarString(val))
		b.WriteByte('\n')
	}
	return nil
}

// encodeSeq writes a block sequence; items are indented at the same level
// as the owning key (Kubernetes style).
func encodeSeq(b *strings.Builder, v reflect.Value, indent int) error {
	if v.Len() == 0 {
		b.WriteString("[]\n")
		return nil
	}
	for i := 0; i < v.Len(); i++ {
		item := deref(v.Index(i))
		if item.IsValid() && item.Kind() == reflect.Interface {
			item = deref(item.Elem()) // a nil interface becomes the invalid Value: "null"
		}
		b.WriteString(indentStr(indent))
		b.WriteString("- ")
		if !item.IsValid() {
			b.WriteString("null\n")
			continue
		}
		switch item.Kind() {
		case reflect.Map, reflect.Struct:
			// First key on the dash line, rest indented below.
			var sub strings.Builder
			var err error
			if item.Kind() == reflect.Map {
				err = encodeMap(&sub, item, indent+1)
			} else {
				err = encodeStruct(&sub, item, indent+1)
			}
			if err != nil {
				return err
			}
			text := sub.String()
			if text == "{}\n" {
				b.WriteString("{}\n")
				continue
			}
			// Strip the first line's indentation: it rides on the "- ".
			prefix := indentStr(indent + 1)
			lines := strings.SplitAfter(text, "\n")
			for j, line := range lines {
				if line == "" {
					continue
				}
				if j == 0 {
					b.WriteString(strings.TrimPrefix(line, prefix))
				} else {
					b.WriteString(line)
				}
			}
		case reflect.Slice, reflect.Array:
			sub := strings.Builder{}
			if err := encodeSeq(&sub, item, indent+1); err != nil {
				return err
			}
			b.WriteByte('\n')
			b.WriteString(sub.String())
		default:
			b.WriteString(scalarString(item))
			b.WriteByte('\n')
		}
	}
	return nil
}

func scalarString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.String:
		return quoteIfNeeded(v.String())
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		s := strconv.FormatFloat(v.Float(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && s != "NaN" {
			s += ".0"
		}
		return s
	}
	return fmt.Sprint(v.Interface())
}

func keyString(k string) string { return quoteIfNeeded(k) }

// quoteIfNeeded double-quotes strings that would be ambiguous as plain YAML
// scalars (empty, leading/trailing space, special characters, or strings
// that would parse as numbers/booleans/null).
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	plain := true
	runes := []rune(s)
	if unicode.IsSpace(runes[0]) || unicode.IsSpace(runes[len(runes)-1]) {
		plain = false
	}
	for i, r := range s {
		if unicode.IsSpace(r) && r != ' ' {
			plain = false
			break
		}
		if !utf8.ValidRune(r) || r == utf8.RuneError {
			plain = false
			break
		}
		switch r {
		case ':', '#', '{', '}', '[', ']', ',', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`', '\n', '\t':
			plain = false
		case '-':
			if i == 0 && (len(s) == 1 || s[1] == ' ') {
				plain = false
			}
		case ' ':
			if i == 0 || i == len(s)-1 {
				plain = false
			}
		case '?':
			if i == 0 {
				plain = false
			}
		}
		if !plain {
			break
		}
	}
	if plain {
		switch strings.ToLower(s) {
		case "true", "false", "null", "~", "yes", "no", "on", "off":
			plain = false
		}
	}
	if plain {
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			plain = false
		}
	}
	if plain {
		return s
	}
	return strconv.Quote(s)
}
