package yamlenc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMarshalScalars(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{map[string]any{"a": 1}, "a: 1\n"},
		{map[string]any{"a": "text"}, "a: text\n"},
		{map[string]any{"a": true}, "a: true\n"},
		{map[string]any{"a": 1.5}, "a: 1.5\n"},
		{map[string]any{"a": nil}, "a: null\n"},
		{map[string]any{"a": ""}, "a: \"\"\n"},
		{map[string]any{"a": "true"}, "a: \"true\"\n"},
		{map[string]any{"a": "123"}, "a: \"123\"\n"},
		{map[string]any{"a": "x: y"}, "a: \"x: y\"\n"},
	}
	for _, c := range cases {
		got, err := Marshal(c.in)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("Marshal(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMarshalNestedMap(t *testing.T) {
	in := map[string]any{
		"metadata": map[string]any{
			"name":      "emco-server",
			"namespace": "icelab",
			"labels":    map[string]any{"app": "opcua"},
		},
		"kind": "Deployment",
	}
	got, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"kind: Deployment",
		"metadata:",
		"  labels:",
		"    app: opcua",
		"  name: emco-server",
		"  namespace: icelab",
		"",
	}, "\n")
	if string(got) != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestMarshalSequences(t *testing.T) {
	in := map[string]any{
		"containers": []any{
			map[string]any{"name": "a", "image": "img:1"},
			map[string]any{"name": "b"},
		},
		"args":  []any{"x", "y"},
		"empty": []any{},
	}
	got, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	text := string(got)
	for _, want := range []string{
		"containers:\n- image: \"img:1\"\n  name: a\n- name: b\n",
		"args:\n- x\n- y\n",
		"empty: []\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestMarshalRejectsOtherShapes: the encoder takes only what the decoder
// yields; a struct, a typed map or slice, or another number type is an error
// rather than a guess at its YAML form.
func TestMarshalRejectsOtherShapes(t *testing.T) {
	for _, v := range []any{
		struct{ Name string }{"web"},
		map[string]string{"a": "b"},
		[]string{"x"},
		map[string]any{"port": int32(4840)},
		[]any{map[string]any{"ok": true, "bad": uint(1)}},
	} {
		if out, err := Marshal(v); err == nil {
			t.Errorf("Marshal(%#v) = %q, want an error", v, out)
		}
	}
}

func TestRoundTripDocument(t *testing.T) {
	in := map[string]any{
		"apiVersion": "apps/v1",
		"kind":       "Deployment",
		"metadata": map[string]any{
			"name": "opcua-client-1",
		},
		"spec": map[string]any{
			"replicas": int64(2),
			"template": map[string]any{
				"spec": map[string]any{
					"containers": []any{
						map[string]any{
							"name":  "client",
							"image": "factory/opcua-client:1.0",
							"ports": []any{
								map[string]any{"containerPort": int64(4840)},
							},
							"env": []any{
								map[string]any{"name": "BROKER", "value": "tcp://broker:1883"},
							},
						},
					},
				},
			},
		},
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal:\n%s\nerr: %v", data, err)
	}
	if !reflect.DeepEqual(back, in) {
		t.Errorf("round trip mismatch:\nin:  %#v\nout: %#v\nyaml:\n%s", in, back, data)
	}
}

func TestMultiDoc(t *testing.T) {
	a := map[string]any{"kind": "Namespace"}
	b := map[string]any{"kind": "Service"}
	data, err := MarshalDocs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := UnmarshalDocs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs, want 2", len(docs))
	}
	if !reflect.DeepEqual(docs[0], a) || !reflect.DeepEqual(docs[1], b) {
		t.Errorf("docs = %#v", docs)
	}
}

func TestUnmarshalComments(t *testing.T) {
	src := `
# leading comment
kind: ConfigMap

data:
  key: value
`
	v, err := Unmarshal([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["kind"] != "ConfigMap" {
		t.Errorf("kind = %v", m["kind"])
	}
	if m["data"].(map[string]any)["key"] != "value" {
		t.Errorf("data = %v", m["data"])
	}
}

func TestUnmarshalSeqAtKeyIndent(t *testing.T) {
	src := "items:\n- a\n- b\n"
	v, err := Unmarshal([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	want := []any{"a", "b"}
	if !reflect.DeepEqual(m["items"], want) {
		t.Errorf("items = %#v, want %#v", m["items"], want)
	}
}

// TestRoundTripProperty checks Marshal/Unmarshal round trip on generated
// string maps.
func TestRoundTripProperty(t *testing.T) {
	f := func(keys []string, vals []string) bool {
		in := map[string]any{}
		for i, k := range keys {
			if k == "" || strings.ContainsAny(k, "\n\r") {
				continue
			}
			v := ""
			if i < len(vals) {
				v = vals[i]
			}
			if strings.ContainsAny(v, "\n\r") {
				continue
			}
			in[k] = v
		}
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return back == nil || len(back.(map[string]any)) == 0
		}
		return reflect.DeepEqual(back, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripIntFloatBoolProperty(t *testing.T) {
	f := func(i int64, fl float64, b bool) bool {
		in := map[string]any{"i": i, "f": fl, "b": b}
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		m, ok := back.(map[string]any)
		if !ok {
			return false
		}
		if m["b"] != b || m["i"] != i {
			return false
		}
		// Floats may come back as int64 when integral.
		switch fv := m["f"].(type) {
		case float64:
			return fv == fl || (fv != fv && fl != fl) // NaN-safe
		case int64:
			return float64(fv) == fl
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
