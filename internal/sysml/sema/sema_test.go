package sema

import (
	"strings"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
)

// paperModel merges the paper's Codes 1-5 into one coherent model: the
// ISA-95 hierarchy, abstract Machine/Driver, the EMCO specializations, and
// the instantiated topology with redefinitions, binds and performs.
const paperModel = `
package ISA95 {
	part def Topology;
	part def Enterprise;
	part def Site;
	part def Area;
	part def ProductionLine;
	part def Workcell;
	abstract part def Machine {
		part def MachineData;
		part def MachineServices;
	}
	abstract part def Driver {
		part def DriverParameters;
		part def DriverVariables;
		part def DriverMethods;
	}
	abstract part def GenericDriver :> Driver;
	abstract part def MachineDriver :> Driver;
}

package EMCO {
	import ISA95::*;

	part def EMCODriver :> MachineDriver {
		part def EMCOParameters :> Driver::DriverParameters {
			attribute ip : String;
			attribute ip_port : Integer;
			attribute program_file_path : String;
		}
		part def EMCOVariables :> Driver::DriverVariables {
			port def EMCOVar {
				in attribute value : String;
				attribute varName : String;
				attribute varType : String;
			}
			part def AxesPositions;
			part def SystemStatus;
		}
		part def EMCOMethods :> Driver::DriverMethods {
			port def EMCOMethod {
				attribute description : String;
				out action operation {
					in arg : String;
					out result : Boolean;
				}
			}
		}
	}

	part def EMCOMillingMachine :> Machine {
		part def EMCOMachineData :> Machine::MachineData {
			part def AxesPositions {
				port actual_X_EMCOVar_conj : ~EMCODriver::EMCOVariables::EMCOVar;
			}
		}
		part def EMCOServices :> Machine::MachineServices {
			port is_ready_conj : ~EMCODriver::EMCOMethods::EMCOMethod;
		}
	}
}

package ICE {
	import ISA95::*;
	import EMCO::*;

	part ICETopology : Topology {
		part UniVR : Enterprise {
			part Verona : Site {
				part ICELab : Area {
					part ICEProductionLine : ProductionLine {
						part workCell02 : Workcell {
							part emco : EMCOMillingMachine {
								ref part emcoDriver;
								part emcoMachineData : EMCOMillingMachine::EMCOMachineData {
									part emcoAxesPosition : EMCOMillingMachine::EMCOMachineData::AxesPositions {
										attribute actualX : Double;
										bind actual_X_EMCOVar_conj.value = actualX;
									}
								}
								part emcoServices : EMCOMillingMachine::EMCOServices {
									action isReady { out ready : Boolean; }
								}
							}
						}
					}
				}
			}
		}
	}

	part emcoDriver : EMCODriver {
		part emcoParameters : EMCODriver::EMCOParameters {
			:>> ip = '10.197.12.11';
			:>> ip_port = 5557;
			:>> program_file_path = 'path/program/file';
		}
		part emcoVariables : EMCODriver::EMCOVariables {
			part emcoAxesPositions : EMCODriver::EMCOVariables::AxesPositions {
				attribute actualX : Double;
				port pp_actual_X_EMCOVar : EMCODriver::EMCOVariables::EMCOVar;
				bind pp_actual_X_EMCOVar.value = actualX;
			}
		}
		part emcoMethods : EMCODriver::EMCOMethods {
			port pp_is_ready_EMCOMthd : EMCODriver::EMCOMethods::EMCOMethod;
			action call_is_ready {
				out ready : Boolean;
				perform pp_is_ready_EMCOMthd.operation {
					out ready = call_is_ready.ready;
				}
			}
		}
	}
}
`

func resolveOK(t *testing.T, src string) *Model {
	t.Helper()
	f, err := parser.ParseFile("test.sysml", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := Resolve(f)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return m
}

func resolveErr(t *testing.T, src string) DiagnosticList {
	t.Helper()
	f, err := parser.ParseFile("test.sysml", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := Resolve(f)
	if err == nil {
		t.Fatalf("want resolution error, got none (diags: %v)", m.Diags)
	}
	return m.Diags
}

func TestResolvePaperModel(t *testing.T) {
	m := resolveOK(t, paperModel)

	emcoDriver := m.FindDef("EMCODriver")
	if emcoDriver == nil {
		t.Fatal("EMCODriver not resolved")
	}
	supers := emcoDriver.AllSupers()
	var names []string
	for _, s := range supers {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "MachineDriver") || !strings.Contains(joined, "Driver") {
		t.Errorf("EMCODriver supers = %v, want MachineDriver and Driver", names)
	}

	// The instantiated emco part must be typed by EMCOMillingMachine which
	// transitively specializes the abstract Machine.
	emco := m.FindUsage("emco")
	if emco == nil || emco.Type == nil {
		t.Fatal("emco usage or its type missing")
	}
	if !emco.Type.SpecializesDef("Machine") {
		t.Error("emco's type does not specialize Machine")
	}
}

func TestInheritedMembersVisible(t *testing.T) {
	m := resolveOK(t, paperModel)
	params := m.FindDef("EMCOParameters")
	if params == nil {
		t.Fatal("EMCOParameters missing")
	}
	if params.InheritedMember("ip") == nil {
		t.Error("own member ip not found")
	}
	// EffectiveMembers must include the three declared attributes.
	var attrs int
	for _, mm := range params.EffectiveMembers() {
		if mm.Kind == KindAttributeUsage {
			attrs++
		}
	}
	if attrs != 3 {
		t.Errorf("EMCOParameters has %d attributes, want 3", attrs)
	}
}

func TestRedefinitionsResolveToInheritedFeatures(t *testing.T) {
	m := resolveOK(t, paperModel)
	emcoParams := m.FindUsage("emcoParameters")
	if emcoParams == nil {
		t.Fatal("emcoParameters not found")
	}
	var redefNames []string
	for _, mm := range emcoParams.Members {
		for _, rd := range mm.Redefines {
			redefNames = append(redefNames, rd.Name)
		}
	}
	want := []string{"ip", "ip_port", "program_file_path"}
	if len(redefNames) != len(want) {
		t.Fatalf("redefined features = %v, want %v", redefNames, want)
	}
	for i, w := range want {
		if redefNames[i] != w {
			t.Errorf("redef[%d] = %q, want %q", i, redefNames[i], w)
		}
	}
}

func TestBindEndpointsResolve(t *testing.T) {
	m := resolveOK(t, paperModel)
	var binds []*Element
	m.Root.Walk(func(e *Element) bool {
		if e.Kind == KindBind {
			binds = append(binds, e)
		}
		return true
	})
	if len(binds) != 2 {
		t.Fatalf("got %d binds, want 2", len(binds))
	}
	for _, b := range binds {
		if b.BindLeft == nil || b.BindRight == nil {
			n := b.Node.(*ast.Bind)
			t.Errorf("bind %s=%s did not resolve", n.Left, n.Right)
			continue
		}
		if b.BindLeft.Name != "value" {
			t.Errorf("bind left resolved to %s, want attribute value", b.BindLeft)
		}
		if b.BindRight.Name != "actualX" {
			t.Errorf("bind right resolved to %s, want actualX", b.BindRight)
		}
	}
}

func TestConjugatedPortDirectionFlips(t *testing.T) {
	m := resolveOK(t, paperModel)
	conj := m.FindUsage("actual_X_EMCOVar_conj")
	if conj == nil {
		t.Fatal("conjugated port not found")
	}
	if !conj.Conjugated {
		t.Fatal("port should be conjugated")
	}
	valueAttr := conj.Type.InheritedMember("value")
	if valueAttr == nil {
		t.Fatal("value attribute not visible through port type")
	}
	if valueAttr.Direction != ast.DirIn {
		t.Fatalf("declared direction = %v, want in", valueAttr.Direction)
	}
	if got := EffectiveDirection(valueAttr.Direction, conj.Conjugated); got != ast.DirOut {
		t.Errorf("effective direction through conjugated port = %v, want out", got)
	}
	plain := m.FindUsage("pp_actual_X_EMCOVar")
	if plain == nil || plain.Conjugated {
		t.Fatal("non-conjugated port missing or wrongly conjugated")
	}
	if got := EffectiveDirection(valueAttr.Direction, plain.Conjugated); got != ast.DirIn {
		t.Errorf("effective direction through plain port = %v, want in", got)
	}
}

func TestPerformTargetResolves(t *testing.T) {
	m := resolveOK(t, paperModel)
	var performs []*Element
	m.Root.Walk(func(e *Element) bool {
		if e.Kind == KindPerform {
			performs = append(performs, e)
		}
		return true
	})
	if len(performs) != 1 {
		t.Fatalf("got %d performs, want 1", len(performs))
	}
	if performs[0].PerformTarget == nil || performs[0].PerformTarget.Name != "operation" {
		t.Errorf("perform target = %v, want action operation", performs[0].PerformTarget)
	}
}

func TestAbstractInstantiationRejected(t *testing.T) {
	diags := resolveErr(t, `
abstract part def Machine;
part m : Machine;
`)
	found := false
	for _, d := range diags {
		if d.Severity == Err && strings.Contains(d.Msg, "abstract") {
			found = true
		}
	}
	if !found {
		t.Errorf("no abstract-instantiation error in %v", diags)
	}
}

func TestAbstractRefAllowed(t *testing.T) {
	resolveOK(t, `
abstract part def Machine;
part def Workcell {
	ref part Machine [*];
}
`)
}

func TestSpecializationCycleDetected(t *testing.T) {
	diags := resolveErr(t, `
part def A :> B;
part def B :> C;
part def C :> A;
`)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Msg, "cycle") {
			found = true
		}
	}
	if !found {
		t.Errorf("no cycle error in %v", diags)
	}
}

func TestUnresolvedTypeReported(t *testing.T) {
	diags := resolveErr(t, `part x : NoSuchDef;`)
	if !strings.Contains(diags.Error(), "cannot resolve type") {
		t.Errorf("diags = %v", diags)
	}
}

func TestUnresolvedSpecializationReported(t *testing.T) {
	diags := resolveErr(t, `part def X :> Missing;`)
	if !strings.Contains(diags.Error(), "cannot resolve specialization") {
		t.Errorf("diags = %v", diags)
	}
}

func TestDuplicateMemberReported(t *testing.T) {
	diags := resolveErr(t, `
part def P {
	attribute a : String;
	attribute a : Integer;
}
`)
	if !strings.Contains(diags.Error(), "duplicate") {
		t.Errorf("diags = %v", diags)
	}
}

func TestInvalidMultiplicityReported(t *testing.T) {
	diags := resolveErr(t, `
part def P;
part def W { ref part p : P [5..2]; }
`)
	if !strings.Contains(diags.Error(), "multiplicity") {
		t.Errorf("diags = %v", diags)
	}
}

func TestValueTypeMismatchWarns(t *testing.T) {
	f, err := parser.ParseFile("t.sysml", `
part p {
	attribute n : Integer = 'not a number';
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Resolve(f)
	if err != nil {
		t.Fatalf("mismatch should be a warning, not error: %v", err)
	}
	warned := false
	for _, d := range m.Diags {
		if d.Severity == Warning && strings.Contains(d.Msg, "does not match") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no type-mismatch warning in %v", m.Diags)
	}
}

func TestBuiltinScalarsInScope(t *testing.T) {
	m := resolveOK(t, `
part p {
	attribute a : String;
	attribute b : Integer;
	attribute c : Real;
	attribute d : Double;
	attribute e : Boolean;
	attribute f : Natural;
}
`)
	p := m.FindUsage("p")
	for _, mm := range p.Members {
		if mm.Type == nil || mm.Type.Kind != KindBuiltin {
			t.Errorf("attribute %s type = %v, want builtin", mm.Name, mm.Type)
		}
	}
}

func TestQualifiedLookupAndImports(t *testing.T) {
	m := resolveOK(t, `
package Lib {
	part def Widget {
		part def Inner;
	}
}
package App {
	import Lib::*;
	part w : Widget;
	part i : Widget::Inner;
}
`)
	w := m.FindUsage("w")
	if w.Type == nil || w.Type.Name != "Widget" {
		t.Errorf("w type = %v", w.Type)
	}
	i := m.FindUsage("i")
	if i.Type == nil || i.Type.Name != "Inner" {
		t.Errorf("i type = %v", i.Type)
	}
	if got := m.FindByQualifiedName("Lib::Widget::Inner"); got == nil || got.Name != "Inner" {
		t.Errorf("FindByQualifiedName = %v", got)
	}
}

func TestUsagesTypedBy(t *testing.T) {
	m := resolveOK(t, paperModel)
	machine := m.FindByQualifiedName("ISA95::Machine")
	if machine == nil {
		t.Fatal("ISA95::Machine missing")
	}
	usages := m.UsagesTypedBy(machine)
	if len(usages) != 1 || usages[0].Name != "emco" {
		var names []string
		for _, u := range usages {
			names = append(names, u.Name)
		}
		t.Errorf("usages typed by Machine = %v, want [emco]", names)
	}
}

func TestQualifiedNameRendering(t *testing.T) {
	m := resolveOK(t, paperModel)
	e := m.FindUsage("workCell02")
	want := "ICE::ICETopology::UniVR::Verona::ICELab::ICEProductionLine::workCell02"
	if got := e.QualifiedName(); got != want {
		t.Errorf("QualifiedName = %q, want %q", got, want)
	}
}

func TestEffectiveMembersShadowing(t *testing.T) {
	m := resolveOK(t, `
part def Base {
	attribute x : String;
	attribute y : String;
}
part def Derived :> Base {
	attribute x : Integer;
}
`)
	d := m.FindDef("Derived")
	var xCount, total int
	for _, mm := range d.EffectiveMembers() {
		if mm.Name == "x" {
			xCount++
			if mm.Type.Name != "Integer" {
				t.Errorf("shadowed x has type %v, want Integer", mm.Type)
			}
		}
		total++
	}
	if xCount != 1 {
		t.Errorf("x appears %d times in effective members, want 1 (shadowed)", xCount)
	}
	if total != 2 {
		t.Errorf("effective member count = %d, want 2 (x, y)", total)
	}
}
