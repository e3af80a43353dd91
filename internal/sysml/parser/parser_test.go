package parser

import (
	"strings"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
)

// code1 is the paper's Code 1: ISA-95 hierarchical structure.
const code1 = `
part def Topology {
	part def Enterprise {
		part def Site {
			part def Area {
				part def ProductionLine {
					attribute def ProductionLineVariables;
					part def Workcell {
						ref part Machine [*];
						attribute def WorkCellVariables;
					}
				}
			}
		}
	}
}
`

// code2 is the paper's Code 2: EMCODriver specialization.
const code2 = `
part def MachineDriver {
	part def DriverParameters;
	part def DriverVariables;
	part def DriverMethods;
}
part def EMCODriver :> MachineDriver {
	part def EMCOParameters :> DriverParameters {
		attribute ip : String;
		attribute ip_port : Integer;
		attribute program_file_path : String;
	}
	part def EMCOVariables :> DriverVariables {
		port def EMCOVar {
			in attribute value : String;
		}
		part def AxesPositions;
		part def SystemStatus;
	}
	part def EMCOMethods :> DriverMethods {
		port def EMCOMethod {
			attribute description : String;
			out action operation {
				in arg : String;
				out result : String;
			}
		}
	}
}
`

// code5 is the paper's Code 5: driver instantiation with redefinitions,
// binds and performs.
const code5 = `
part emcoDriver : EMCODriver {
	part emcoParameters : EMCOParameters {
		:>> ip = '10.197.12.11';
		:>> ip_port = 5557;
		:>> program_file_path = 'path/program/file';
	}
	part emcoVariables : EMCOVariables {
		part emcoSystemStatus : SystemStatus;
		part emcoAxesPositions : AxesPositions {
			attribute actualX : Double;
			port pp_actual_X_EMCOVar : EMCOVar;
			bind pp_actual_X_EMCOVar.value = actualX;
		}
	}
	part emcoMethods : EMCOMethods {
		action call_is_ready {
			out ready : Boolean;
			perform pp_is_ready_EMCOMthd.operation {
				out ready = call_is_ready.ready;
			}
		}
	}
}
`

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := ParseFile("test.sysml", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func TestParseCode1Hierarchy(t *testing.T) {
	f := parseOK(t, code1)
	if len(f.Members) != 1 {
		t.Fatalf("got %d top-level members, want 1", len(f.Members))
	}
	top, ok := f.Members[0].(*ast.Definition)
	if !ok || top.Name != "Topology" || top.Kind != ast.DefPart {
		t.Fatalf("top member = %#v, want part def Topology", f.Members[0])
	}
	// Descend to Workcell and check the ref part Machine [*].
	var workcell *ast.Definition
	ast.Inspect(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.Definition); ok && d.Name == "Workcell" {
			workcell = d
		}
		return true
	})
	if workcell == nil {
		t.Fatal("Workcell definition not found")
	}
	var machineRef *ast.Usage
	for _, m := range workcell.Members {
		if u, ok := m.(*ast.Usage); ok && u.Name == "Machine" {
			machineRef = u
		}
	}
	if machineRef == nil {
		t.Fatal("ref part Machine not found in Workcell")
	}
	if !machineRef.Ref {
		t.Error("Machine usage should be ref")
	}
	if machineRef.Multiplicity == nil || machineRef.Multiplicity.Upper != ast.Many {
		t.Errorf("Machine multiplicity = %v, want [*]", machineRef.Multiplicity)
	}
}

func TestParseCode2Specializations(t *testing.T) {
	f := parseOK(t, code2)
	var emcoDriver *ast.Definition
	ast.Inspect(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.Definition); ok && d.Name == "EMCODriver" {
			emcoDriver = d
		}
		return true
	})
	if emcoDriver == nil {
		t.Fatal("EMCODriver not found")
	}
	if len(emcoDriver.Specializes) != 1 || emcoDriver.Specializes[0].String() != "MachineDriver" {
		t.Errorf("EMCODriver specializes %v, want MachineDriver", emcoDriver.Specializes)
	}
	// The out action inside the port def must carry its direction.
	var op *ast.Usage
	ast.Inspect(f, func(n ast.Node) bool {
		if u, ok := n.(*ast.Usage); ok && u.Name == "operation" && u.Kind == ast.UseAction {
			op = u
		}
		return true
	})
	if op == nil {
		t.Fatal("action operation not found")
	}
	if op.Direction != ast.DirOut {
		t.Errorf("operation direction = %v, want out", op.Direction)
	}
	if len(op.Members) != 2 {
		t.Fatalf("operation has %d parameters, want 2", len(op.Members))
	}
}

func TestParseCode5InstantiationConstructs(t *testing.T) {
	f := parseOK(t, code5)

	var redefs []*ast.Usage
	var binds []*ast.Bind
	var performs []*ast.Perform
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Usage:
			if len(x.Redefines) > 0 {
				redefs = append(redefs, x)
			}
		case *ast.Bind:
			binds = append(binds, x)
		case *ast.Perform:
			performs = append(performs, x)
		}
		return true
	})

	if len(redefs) != 3 {
		t.Errorf("got %d redefinitions, want 3", len(redefs))
	}
	wantValues := map[string]string{
		"ip":                "10.197.12.11",
		"program_file_path": "path/program/file",
	}
	for _, u := range redefs {
		name := u.Redefines[0].String()
		if want, ok := wantValues[name]; ok {
			lit, isStr := u.Value.(*ast.StringLit)
			if !isStr || lit.Value != want {
				t.Errorf("redefinition %s value = %#v, want %q", name, u.Value, want)
			}
		}
		if name == "ip_port" {
			lit, isInt := u.Value.(*ast.IntLit)
			if !isInt || lit.Value != 5557 {
				t.Errorf("ip_port value = %#v, want 5557", u.Value)
			}
		}
	}

	if len(binds) != 1 {
		t.Fatalf("got %d binds, want 1", len(binds))
	}
	if got := binds[0].Left.String(); got != "pp_actual_X_EMCOVar.value" {
		t.Errorf("bind left = %q", got)
	}
	if got := binds[0].Right.String(); got != "actualX" {
		t.Errorf("bind right = %q", got)
	}

	if len(performs) != 1 {
		t.Fatalf("got %d performs, want 1", len(performs))
	}
	if got := performs[0].Target.String(); got != "pp_is_ready_EMCOMthd.operation" {
		t.Errorf("perform target = %q", got)
	}
	if len(performs[0].Members) != 1 {
		t.Errorf("perform body has %d members, want 1", len(performs[0].Members))
	}
}

func TestParseAbstractAndConjugation(t *testing.T) {
	src := `
abstract part def Driver;
part def P {
	port def V { in attribute value : String; }
}
part def M {
	port v : ~P::V;
	port w : P::V;
}
`
	f := parseOK(t, src)
	var driver *ast.Definition
	var conj, plain *ast.Usage
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Definition:
			if x.Name == "Driver" {
				driver = x
			}
		case *ast.Usage:
			if x.Name == "v" {
				conj = x
			}
			if x.Name == "w" {
				plain = x
			}
		}
		return true
	})
	if driver == nil || !driver.Abstract {
		t.Error("Driver should be abstract")
	}
	if conj == nil || conj.Type == nil || !conj.Type.Conjugated {
		t.Error("port v should have conjugated type")
	}
	if plain == nil || plain.Type == nil || plain.Type.Conjugated {
		t.Error("port w should not be conjugated")
	}
	if conj.Type.Name.String() != "P::V" {
		t.Errorf("conjugated type name = %q, want P::V", conj.Type.Name)
	}
}

func TestParseInterfaceAndConnect(t *testing.T) {
	src := `
package Channels {
	port def VarPort { in attribute value : String; }
	interface def VarChannel {
		end supplier : VarPort;
		end consumer : ~VarPort;
	}
	part def System {
		part a { port p : VarPort; }
		part b { port q : ~VarPort; }
		interface : VarChannel connect a.p to b.q;
		connect a.p to b.q;
	}
}
`
	f := parseOK(t, src)
	pkg, ok := f.Members[0].(*ast.Package)
	if !ok || pkg.Name != "Channels" {
		t.Fatalf("want package Channels, got %#v", f.Members[0])
	}
	var iface *ast.Definition
	var connects []*ast.Connect
	var ends []*ast.Usage
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Definition:
			if x.Kind == ast.DefInterface {
				iface = x
			}
		case *ast.Connect:
			connects = append(connects, x)
		case *ast.Usage:
			if x.Kind == ast.UseEnd {
				ends = append(ends, x)
			}
		}
		return true
	})
	if iface == nil || iface.Name != "VarChannel" {
		t.Fatal("interface def VarChannel not found")
	}
	if len(ends) != 2 {
		t.Errorf("got %d interface ends, want 2", len(ends))
	}
	if len(connects) != 2 {
		t.Fatalf("got %d connects, want 2", len(connects))
	}
	if connects[0].Type == nil || connects[0].Type.Name.String() != "VarChannel" {
		t.Errorf("typed connect lost its interface type: %#v", connects[0].Type)
	}
}

func TestParseImports(t *testing.T) {
	src := `
package A { part def X; }
package B {
	import A::*;
	private import A::X;
	part x : X;
}
`
	f := parseOK(t, src)
	pkgB := f.Members[1].(*ast.Package)
	var imports []*ast.Import
	for _, m := range pkgB.Members {
		if imp, ok := m.(*ast.Import); ok {
			imports = append(imports, imp)
		}
	}
	if len(imports) != 2 {
		t.Fatalf("got %d imports, want 2", len(imports))
	}
	if !imports[0].Wildcard || imports[0].Path.String() != "A" {
		t.Errorf("first import = %+v, want wildcard A::*", imports[0])
	}
	if !imports[1].Private || imports[1].Wildcard || imports[1].Path.String() != "A::X" {
		t.Errorf("second import = %+v, want private A::X", imports[1])
	}
}

func TestParseMultiplicities(t *testing.T) {
	src := `
part def W {
	ref part a [*];
	ref part b [3];
	ref part c [1..5];
	ref part d [0..*];
}
`
	f := parseOK(t, src)
	got := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		if u, ok := n.(*ast.Usage); ok && u.Multiplicity != nil {
			got[u.Name] = u.Multiplicity.String()
		}
		return true
	})
	want := map[string]string{"a": "[*]", "b": "[3]", "c": "[1..5]", "d": "[*]"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("multiplicity of %s = %s, want %s", k, got[k], v)
		}
	}
}

func TestParseErrorsRecover(t *testing.T) {
	src := `
part def Good1;
part def { }
part def Good2;
`
	f, err := ParseFile("bad.sysml", src)
	if err == nil {
		t.Fatal("want parse error")
	}
	names := map[string]bool{}
	for _, m := range f.Members {
		if d, ok := m.(*ast.Definition); ok {
			names[d.Name] = true
		}
	}
	if !names["Good1"] || !names["Good2"] {
		t.Errorf("recovery lost good definitions: %v", names)
	}
}

func TestParseErrorMessagesCarryPositions(t *testing.T) {
	_, err := ParseFile("pos.sysml", "part def X :> ;")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "pos.sysml:1:") {
		t.Errorf("error lacks file:line position: %v", err)
	}
}

func TestParseComments(t *testing.T) {
	src := `
// line comment
part def X {
	/* block
	   comment */
	attribute a : String; // trailing
}
`
	f := parseOK(t, src)
	if len(f.Members) != 1 {
		t.Fatalf("got %d members, want 1", len(f.Members))
	}
}

func TestParseValueTypes(t *testing.T) {
	src := `
part p {
	attribute s : String = 'text';
	attribute i : Integer = 42;
	attribute r : Real = 3.25;
	attribute b1 : Boolean = true;
	attribute b2 : Boolean = false;
	attribute ref_v : String = other.path;
}
`
	f := parseOK(t, src)
	vals := map[string]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		if u, ok := n.(*ast.Usage); ok && u.Value != nil {
			vals[u.Name] = u.Value
		}
		return true
	})
	if v, ok := vals["s"].(*ast.StringLit); !ok || v.Value != "text" {
		t.Errorf("s = %#v", vals["s"])
	}
	if v, ok := vals["i"].(*ast.IntLit); !ok || v.Value != 42 {
		t.Errorf("i = %#v", vals["i"])
	}
	if v, ok := vals["r"].(*ast.RealLit); !ok || v.Value != 3.25 {
		t.Errorf("r = %#v", vals["r"])
	}
	if v, ok := vals["b1"].(*ast.BoolLit); !ok || !v.Value {
		t.Errorf("b1 = %#v", vals["b1"])
	}
	if v, ok := vals["b2"].(*ast.BoolLit); !ok || v.Value {
		t.Errorf("b2 = %#v", vals["b2"])
	}
	if v, ok := vals["ref_v"].(*ast.FeatureRef); !ok || v.Path.String() != "other.path" {
		t.Errorf("ref_v = %#v", vals["ref_v"])
	}
}

func TestParseNegativeLiterals(t *testing.T) {
	src := "part p {\n\tattribute x : Real = -1.5;\n\tattribute n : Integer = -42;\n\tattribute e : Real = -2e-3;\n}\n"
	f := parseOK(t, src)
	vals := map[string]ast.Expr{}
	ast.Inspect(f, func(n ast.Node) bool {
		if u, ok := n.(*ast.Usage); ok && u.Value != nil {
			vals[u.Name] = u.Value
		}
		return true
	})
	if v, ok := vals["x"].(*ast.RealLit); !ok || v.Value != -1.5 {
		t.Errorf("x = %#v, want RealLit -1.5", vals["x"])
	} else if v.Position.Line != 2 || v.Position.Column != 23 {
		t.Errorf("x literal at %v, want 2:23 (the '-')", v.Position)
	}
	if v, ok := vals["n"].(*ast.IntLit); !ok || v.Value != -42 {
		t.Errorf("n = %#v, want IntLit -42", vals["n"])
	}
	if v, ok := vals["e"].(*ast.RealLit); !ok || v.Value != -2e-3 {
		t.Errorf("e = %#v, want RealLit -0.002", vals["e"])
	}
}

func TestParseMinusWithoutNumberIsOneError(t *testing.T) {
	for _, src := range []string{
		"part p { attribute x : Real = -y; }",
		"part p { attribute x : Real = - ; }",
		"part p { attribute x : String = -'s'; }",
		"part p { attribute x : Boolean = -true; }",
	} {
		_, err := ParseFile("m.sysml", src)
		list, ok := err.(ErrorList)
		if !ok || len(list) != 1 {
			t.Errorf("%q: got %v, want exactly one error", src, err)
			continue
		}
		if !strings.Contains(list[0].Msg, "expected number after '-'") {
			t.Errorf("%q: error %q", src, list[0].Msg)
		}
	}
}

// TestParseErrorsInSourceOrder: a lexical error is listed where it occurs,
// before the syntax errors it causes further on.
func TestParseErrorsInSourceOrder(t *testing.T) {
	src := "part def D { attribute ip : String = '10.0.0.1; }\npart def E;\n"
	_, err := ParseFile("m.sysml", src)
	list, ok := err.(ErrorList)
	if !ok || len(list) < 2 {
		t.Fatalf("got %v, want a lexical error and the syntax errors after it", err)
	}
	if list[0].Msg != "unterminated string literal" || list[0].Pos.Line != 1 || list[0].Pos.Column != 38 {
		t.Errorf("first error = %v, want the unterminated string at 1:38", list[0])
	}
	for i := 1; i < len(list); i++ {
		if list[i].Pos.Offset < list[i-1].Pos.Offset {
			t.Errorf("errors out of order: %v before %v", list[i-1], list[i])
		}
	}
}
