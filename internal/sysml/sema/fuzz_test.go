package sema_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/icelab"
	"github.com/smartfactory/sysml2conf/internal/sysml/lexer"
	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
	"github.com/smartfactory/sysml2conf/internal/sysml/printer"
	"github.com/smartfactory/sysml2conf/internal/sysml/sema"
	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

// maxFuzzInput bounds an input: larger models add time, not new paths.
const maxFuzzInput = 64 << 10

// addFrontEndSeeds seeds a front-end fuzz target with the paper's Codes
// 1-5, the milling-cell example, an ICE Lab fragment (one machine
// definition and its workcell), the broken-model corpus and edge cases of
// the lexer and the expression grammar.
func addFrontEndSeeds(f *testing.F) {
	f.Add(sema.PaperModel)
	milling, err := os.ReadFile("../../../examples/models/millingcell.sysml")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(milling))
	spec := icelab.ICELab()
	spec.Machines = spec.Machines[:1]
	spec.Processes, spec.LineMonitors, spec.WorkcellMonitors = nil, nil, nil
	f.Add(icelab.GenerateModelText(spec))
	broken, err := filepath.Glob(filepath.Join("testdata", "broken", "*.sysml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range broken {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		"part p { attribute x : Real = -1.5; attribute n : Integer = -42; }",
		"part p { attribute x : Real = - y; }",
		"part def D { attribute ip : String = '10.0.0.1; }\npart def E;",
		"part p { attribute s : String = 'it\\'s\\n'; } // comment",
		"/* open block comment",
		"package P { import Q::**; part def A :> B, C; part a : ~A [2..*] :> a :>> b subsets c; }",
		"part d : D { :>> x = 1e-3; :>> y = 5e; ref part z; perform z.op { in a = b.c; } }",
		"interface def I { end a : P; end b : ~P; } part c { interface i : I connect a.p to b.q; bind a.v = b.v; }",
		"part x :» y;",
	} {
		f.Add(src)
	}
}

// FuzzParseResolve: lexing, parsing and resolving any input terminates
// without a panic, and every error it reports points into the input.
func FuzzParseResolve(f *testing.F) {
	addFrontEndSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			return
		}
		inInput := func(what string, pos token.Position) {
			if pos.Line <= 0 || pos.Offset < 0 || pos.Offset > len(src) {
				t.Fatalf("%s at %+v, outside the %d-byte input", what, pos, len(src))
			}
		}
		_, lexErrs := lexer.ScanAll("f.sysml", src)
		for _, e := range lexErrs {
			inInput("lexical error "+e.Msg, e.Pos)
		}
		file, err := parser.ParseFile("f.sysml", src)
		if err != nil {
			list, ok := err.(parser.ErrorList)
			if !ok || len(list) == 0 {
				t.Fatalf("ParseFile error %T %v, want a non-empty ErrorList", err, err)
			}
			for _, e := range list {
				inInput("syntax error "+e.Msg, e.Pos)
			}
		}
		m, _ := sema.Resolve(file)
		for _, d := range m.Diags {
			if d.Severity == sema.Err {
				inInput("resolve error "+d.Msg, d.Pos)
			}
		}
	})
}

// FuzzPrintRoundTrip: an accepted model prints to text that parses again
// and prints identically.
func FuzzPrintRoundTrip(f *testing.F) {
	addFrontEndSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			return
		}
		f1, err := parser.ParseFile("a.sysml", src)
		if err != nil {
			return
		}
		out1 := printer.Print(f1)
		f2, err := parser.ParseFile("b.sysml", out1)
		if err != nil {
			t.Fatalf("printed model does not parse: %v\n--- input\n%s\n--- printed\n%s", err, src, out1)
		}
		if out2 := printer.Print(f2); out2 != out1 {
			t.Fatalf("printing is not stable:\n--- input\n%s\n--- first\n%s\n--- second\n%s", src, out1, out2)
		}
	})
}
