package yamlenc

import (
	"reflect"
	"strconv"
	"testing"
)

// FuzzUnquote: unquote is strconv.Unquote for anything between two double
// quotes — the same value, the same rejections. The decoder of every
// manifest rests on that equivalence.
func FuzzUnquote(f *testing.F) {
	for _, body := range []string{
		``, `plain`, `a\nb`, `say \"hi\"`, `é`, `\x41`, `\U0001F600`, `\101`, `\u00e9`,
		"raw\nnewline", `lone\`, `\`, "\xff\xfe", "ok\xc3", `\xff`, `\400`, `\ud800`,
		`\'`, `"`, `a"b`, `\q`, `\u12`, `{\"machine\":\"emco\",\"port\":4840}`, "tab\there",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := `"` + string(body) + `"`
		want, err := strconv.Unquote(s)
		got, ok := unquote(s)
		if ok != (err == nil) {
			t.Fatalf("unquote(%q) ok = %v, strconv.Unquote err = %v", s, ok, err)
		}
		if got != want {
			t.Fatalf("unquote(%q) = %q, strconv.Unquote = %q", s, got, want)
		}
	})
}

// FuzzUnmarshalDocs: the decoder returns (never panics, never spins) on
// arbitrary bytes, and whatever it accepts survives a round trip through
// the encoder.
func FuzzUnmarshalDocs(f *testing.F) {
	for _, doc := range []string{
		"", "a: 1\n", "---\n", "a: 1\n---\nb: [] \n", "- x\n- y: 2\n  z: \"q\\\"\"\n",
		"kind: ConfigMap\ndata:\n  server.json: \"{\\\"name\\\":\\\"s\\\"}\"\n",
		"spec:\n  ports:\n  - name: main\n    port: 4840\n", "key:\n- 1\n- -2.5\n- ~\n",
		"# comment\na: 'it''s'\n", "\"quoted key\": true\n", "a:\n    b: 1\n  c: 2\n",
		"- - nested\n", "a: {}\nb: null\n", ": empty\n", "-\n", "a: \"unterminated\n",
		"- []\n- {}\n",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := UnmarshalDocs(data)
		if err != nil {
			return
		}
		out, err := MarshalDocs(docs...)
		if err != nil {
			t.Fatalf("MarshalDocs of accepted input %q: %v", data, err)
		}
		again, err := UnmarshalDocs(out)
		if err != nil {
			t.Fatalf("re-encoded as %q, which does not decode: %v (input %q)", out, err, data)
		}
		if !reflect.DeepEqual(again, docs) {
			t.Fatalf("round trip changed the value\ninput   %q\ndecoded %#v\nencoded %q\nagain   %#v", data, docs, out, again)
		}
	})
}
