package parser

import (
	"testing"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
	"github.com/smartfactory/sysml2conf/internal/sysml/printer"
)

// slabModel has every slab-backed slice kind, several of each next to
// one another: names, one- and many-element relation lists, and bodies.
const slabModel = `
package P {
	import Q::*;
	part def A;
	part def B :> A, C;
	part def C :> A {
		attribute x : String;
		attribute y : Integer;
	}
	part b : B :> A :> C :>> x :>> y subsets s.t subsets u {
		:>> x = 'one';
		:>> y = 2;
		bind a.b.c = d::e.f;
		interface : I connect p.q to r.s;
		perform p.op { in a = b.c; }
	}
}
`

// slices returns every slice of n that the parser hands out of a slab.
func slices(n ast.Node) map[string]any {
	out := map[string]any{}
	switch x := n.(type) {
	case *ast.File:
		out["Members"] = x.Members
	case *ast.Package:
		out["Members"] = x.Members
	case *ast.Import:
		out["Path.Parts"] = x.Path.Parts
	case *ast.Definition:
		out["Specializes"] = x.Specializes
		out["Members"] = x.Members
		for i, q := range x.Specializes {
			out["Specializes.Parts"+string(rune('0'+i))] = q.Parts
		}
	case *ast.Usage:
		out["Specializes"] = x.Specializes
		out["Redefines"] = x.Redefines
		out["Subsets"] = x.Subsets
		out["Members"] = x.Members
		if x.Type != nil {
			out["Type.Parts"] = x.Type.Name.Parts
		}
		for i, f := range x.Redefines {
			out["Redefines.Parts"+string(rune('0'+i))] = f.Parts
		}
		for i, f := range x.Subsets {
			out["Subsets.Parts"+string(rune('0'+i))] = f.Parts
		}
	case *ast.Bind:
		out["Left.Parts"] = x.Left.Parts
		out["Right.Parts"] = x.Right.Parts
	case *ast.Connect:
		out["From.Parts"] = x.From.Parts
		out["To.Parts"] = x.To.Parts
	case *ast.Perform:
		out["Target.Parts"] = x.Target.Parts
		out["Members"] = x.Members
	}
	return out
}

func TestSlabSlicesAreCapped(t *testing.T) {
	f := parseOK(t, slabModel)
	checked := 0
	ast.Inspect(f, func(n ast.Node) bool {
		for name, s := range slices(n) {
			var l, c int
			switch v := s.(type) {
			case []string:
				l, c = len(v), cap(v)
			case []ast.Member:
				l, c = len(v), cap(v)
			case []*ast.QualifiedName:
				l, c = len(v), cap(v)
			case []*ast.FeaturePath:
				l, c = len(v), cap(v)
			}
			if l != c {
				t.Errorf("%T at %v: %s has len %d, cap %d", n, n.Pos(), name, l, c)
			}
			checked += l
		}
		return true
	})
	if checked < 40 {
		t.Fatalf("walk checked %d elements; the model should exercise every slab", checked)
	}
}

// TestSlabAppendLeavesNeighboursAlone appends to every slab-backed slice
// in turn and checks that no other node changed, by printing the tree.
// (printer imports only ast, so the parser's own tests may use it.)
func TestSlabAppendLeavesNeighboursAlone(t *testing.T) {
	f := parseOK(t, slabModel)
	before := printer.Print(f)
	extra := &ast.FeaturePath{Parts: []string{"zz"}}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Definition:
			_ = append(x.Specializes, &ast.QualifiedName{Parts: []string{"zz"}})
			_ = append(x.Members, &ast.Doc{Text: "zz"})
			for _, q := range x.Specializes {
				_ = append(q.Parts, "zz")
			}
		case *ast.Usage:
			_ = append(x.Redefines, extra)
			_ = append(x.Subsets, extra)
			_ = append(x.Specializes, &ast.QualifiedName{Parts: []string{"zz"}})
			_ = append(x.Members, &ast.Doc{Text: "zz"})
			for _, p := range x.Redefines {
				_ = append(p.Parts, "zz")
			}
		case *ast.Bind:
			_ = append(x.Left.Parts, "zz")
			_ = append(x.Right.Parts, "zz")
		case *ast.Connect:
			_ = append(x.From.Parts, "zz")
			_ = append(x.To.Parts, "zz")
		case *ast.Perform:
			_ = append(x.Target.Parts, "zz")
			_ = append(x.Members, &ast.Doc{Text: "zz"})
		case *ast.Package:
			_ = append(x.Members, &ast.Doc{Text: "zz"})
		}
		return true
	})
	if after := printer.Print(f); after != before {
		t.Errorf("an append through one node changed another:\n--- before\n%s--- after\n%s", before, after)
	}
}
