package printer

import (
	"reflect"
	"strings"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
)

func roundTrip(t *testing.T, src string) (string, string) {
	t.Helper()
	f1, err := parser.ParseFile("a.sysml", src)
	if err != nil {
		t.Fatalf("first parse: %v", err)
	}
	out1 := Print(f1)
	f2, err := parser.ParseFile("b.sysml", out1)
	if err != nil {
		t.Fatalf("reparse of printed output failed: %v\noutput:\n%s", err, out1)
	}
	out2 := Print(f2)
	return out1, out2
}

func TestIdempotent(t *testing.T) {
	src := `
package P {
	import ISA95::*;
	abstract part def Driver;
	part def D :> Driver {
		attribute ip : String;
		port def V { in attribute value : Anything; }
	}
	part d : D {
		:>> ip = '10.0.0.1';
		port p : ~D::V;
		bind p.value = ip;
	}
	connect d.p to d.p;
}
`
	out1, out2 := roundTrip(t, src)
	if out1 != out2 {
		t.Errorf("printer not idempotent:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
}

func TestPreservesConstructs(t *testing.T) {
	src := `
part def W {
	ref part Machine [*];
	ref part one [3];
	ref part range [1..5];
}
abstract part def A :> B, C;
part x : T {
	in attribute i : Integer = 7;
	out attribute o : Real = 2.5;
	action a { out ready : Boolean; }
	perform p.operation {
		out ready = a.ready;
	}
}
`
	out, _ := roundTrip(t, src)
	for _, want := range []string{
		"ref part Machine [*];",
		"ref part one [3];",
		"ref part range [1..5];",
		"abstract part def A :> B, C;",
		"in attribute i : Integer = 7",
		"out attribute o : Real = 2.5",
		"perform p.operation {",
		"out ready = a.ready;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output lacks %q:\n%s", want, out)
		}
	}
}

// structure flattens an AST into a comparable skeleton (kinds and names),
// ignoring positions.
func structure(f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Package:
			out = append(out, "pkg:"+x.Name)
		case *ast.Definition:
			out = append(out, "def:"+x.Kind.String()+":"+x.Name+":"+specs(x.Specializes))
		case *ast.Usage:
			val := ""
			if x.Value != nil {
				val = "=v"
			}
			out = append(out, "use:"+x.Kind.String()+":"+x.Name+":"+x.Direction.String()+val)
		case *ast.Bind:
			out = append(out, "bind:"+x.Left.String()+"="+x.Right.String())
		case *ast.Connect:
			out = append(out, "connect:"+x.From.String()+">"+x.To.String())
		case *ast.Perform:
			out = append(out, "perform:"+x.Target.String())
		}
		return true
	})
	return out
}

func specs(qs []*ast.QualifiedName) string {
	var parts []string
	for _, q := range qs {
		parts = append(parts, q.String())
	}
	return strings.Join(parts, ",")
}

func TestRoundTripPreservesStructureOnICELab(t *testing.T) {
	src := icelab.GenerateModelText(icelab.ICELab())
	f1, err := parser.ParseFile("ice.sysml", src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(f1)
	f2, err := parser.ParseFile("ice2.sysml", printed)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	s1, s2 := structure(f1), structure(f2)
	if len(s1) != len(s2) {
		t.Fatalf("structure size changed: %d -> %d", len(s1), len(s2))
	}
	if !reflect.DeepEqual(s1, s2) {
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("structure diverges at %d: %q vs %q", i, s1[i], s2[i])
			}
		}
	}
}

func TestQuoteEscapes(t *testing.T) {
	src := `part p { attribute s : String = 'it\'s\na\ttab\\'; }`
	f1, err := parser.ParseFile("q.sysml", src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(f1)
	f2, err := parser.ParseFile("q2.sysml", printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	var v1, v2 string
	grab := func(f *ast.File, dst *string) {
		ast.Inspect(f, func(n ast.Node) bool {
			if u, ok := n.(*ast.Usage); ok && u.Value != nil {
				if s, ok := u.Value.(*ast.StringLit); ok {
					*dst = s.Value
				}
			}
			return true
		})
	}
	grab(f1, &v1)
	grab(f2, &v2)
	if v1 != v2 || v1 != "it's\na\ttab\\" {
		t.Errorf("string value changed: %q vs %q", v1, v2)
	}
}

func TestEmptyBodiesPrintAsSemis(t *testing.T) {
	out, _ := roundTrip(t, "part def A; package Empty; part def B { }")
	if !strings.Contains(out, "part def A;") {
		t.Errorf("missing A: %s", out)
	}
	if !strings.Contains(out, "package Empty;") {
		t.Errorf("missing Empty: %s", out)
	}
	if !strings.Contains(out, "part def B;") {
		t.Errorf("empty body should collapse to ';': %s", out)
	}
}

// TestNegativeLiteralsRoundTrip: the printer writes a negative number as
// "-1.5", which must parse back to the same literal.
func TestNegativeLiteralsRoundTrip(t *testing.T) {
	src := "part p {\n\tattribute x : Real = -1.5;\n\tattribute n : Integer = -42;\n\tattribute z : Real = -0.0;\n}\n"
	out1, out2 := roundTrip(t, src)
	if out1 != out2 {
		t.Errorf("not idempotent:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	for _, want := range []string{"= -1.5;", "= -42;", "= -0.0;"} {
		if !strings.Contains(out1, want) {
			t.Errorf("output lacks %q:\n%s", want, out1)
		}
	}
}
