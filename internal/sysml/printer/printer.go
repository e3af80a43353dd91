// Package printer renders a SysML v2 syntax tree back to canonical textual
// notation. The output is stable: printing a freshly parsed file and parsing
// it again yields a structurally identical tree (round-trip property), which
// the formatter tool and tests rely on.
package printer

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
)

// Print renders the file with tab indentation.
func Print(f *ast.File) string {
	var p printer
	first := true
	for _, m := range f.Members {
		if !prints(m) {
			continue
		}
		if !first {
			p.nl()
		}
		first = false
		p.member(m)
	}
	return p.b.String()
}

// prints reports whether m renders as anything: a doc without text does
// not, so a body holding only such docs prints as ";".
func prints(m ast.Member) bool {
	d, ok := m.(*ast.Doc)
	return !ok || d.Text != ""
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) nl() { p.b.WriteByte('\n') }

func (p *printer) member(m ast.Member) {
	switch n := m.(type) {
	case *ast.Package:
		p.pkg(n)
	case *ast.Import:
		p.importDecl(n)
	case *ast.Definition:
		p.definition(n)
	case *ast.Usage:
		p.usage(n)
	case *ast.Bind:
		p.line("bind %s = %s;", n.Left, n.Right)
	case *ast.Connect:
		p.connect(n)
	case *ast.Perform:
		p.perform(n)
	case *ast.Doc:
		if n.Text != "" {
			p.line("doc %s;", quote(n.Text))
		}
	case *ast.Comment:
		p.line("%s", n.Text)
	}
}

func (p *printer) body(members []ast.Member) bool {
	empty := true
	for _, m := range members {
		if prints(m) {
			empty = false
			break
		}
	}
	if empty {
		return false
	}
	p.b.WriteString(" {\n")
	p.indent++
	for _, m := range members {
		p.member(m)
	}
	p.indent--
	p.b.WriteString(strings.Repeat("\t", p.indent))
	p.b.WriteString("}\n")
	return true
}

func (p *printer) pkg(n *ast.Package) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	fmt.Fprintf(&p.b, "package %s", n.Name)
	if !p.body(n.Members) {
		p.b.WriteString(";\n")
	}
}

func (p *printer) importDecl(n *ast.Import) {
	var b strings.Builder
	if n.Private {
		b.WriteString("private ")
	}
	b.WriteString("import ")
	b.WriteString(n.Path.String())
	if n.Wildcard {
		b.WriteString("::*")
		if n.Recursive {
			b.WriteString("*")
		}
	}
	b.WriteString(";")
	p.line("%s", b.String())
}

func (p *printer) definition(n *ast.Definition) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	if n.Abstract {
		p.b.WriteString("abstract ")
	}
	fmt.Fprintf(&p.b, "%s def %s", n.Kind, n.Name)
	for i, s := range n.Specializes {
		if i == 0 {
			p.b.WriteString(" :> ")
		} else {
			p.b.WriteString(", ")
		}
		p.b.WriteString(s.String())
	}
	if !p.body(n.Members) {
		p.b.WriteString(";\n")
	}
}

func (p *printer) usage(n *ast.Usage) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	if n.Direction != ast.DirNone {
		p.b.WriteString(n.Direction.String())
		p.b.WriteByte(' ')
	}
	if n.Ref {
		p.b.WriteString("ref ")
	}
	if n.Abstract {
		p.b.WriteString("abstract ")
	}
	// Anonymous pure redefinition keeps the ":>> x = v" shape.
	anonymous := n.Name == "" && len(n.Redefines) > 0
	switch {
	case anonymous:
	case n.ImplicitKind && n.Direction != ast.DirNone:
		// Directional parameter short form: "out ready : Boolean;".
		p.b.WriteString(n.Name)
	default:
		p.b.WriteString(n.Kind.String())
		if n.Name != "" {
			p.b.WriteByte(' ')
			p.b.WriteString(n.Name)
		}
	}
	if n.Type != nil {
		p.b.WriteString(" : ")
		p.b.WriteString(n.Type.String())
	}
	if n.Multiplicity != nil {
		p.b.WriteByte(' ')
		p.b.WriteString(n.Multiplicity.String())
	}
	for _, s := range n.Specializes {
		p.b.WriteString(" :> ")
		p.b.WriteString(s.String())
	}
	for i, r := range n.Redefines {
		if anonymous && i == 0 {
			p.b.WriteString(":>> ")
			p.b.WriteString(r.String())
			continue
		}
		p.b.WriteString(" :>> ")
		p.b.WriteString(r.String())
	}
	for _, s := range n.Subsets {
		p.b.WriteString(" subsets ")
		p.b.WriteString(s.String())
	}
	if n.Value != nil {
		p.b.WriteString(" = ")
		p.b.WriteString(exprString(n.Value))
	}
	if !p.body(n.Members) {
		p.b.WriteString(";\n")
	}
}

func (p *printer) connect(n *ast.Connect) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	if n.Type != nil {
		p.b.WriteString("interface ")
		if n.Name != "" {
			p.b.WriteString(n.Name)
			p.b.WriteByte(' ')
		}
		p.b.WriteString(": ")
		p.b.WriteString(n.Type.String())
		p.b.WriteByte(' ')
	}
	fmt.Fprintf(&p.b, "connect %s to %s;\n", n.From, n.To)
}

func (p *printer) perform(n *ast.Perform) {
	p.b.WriteString(strings.Repeat("\t", p.indent))
	fmt.Fprintf(&p.b, "perform %s", n.Target)
	if !p.body(n.Members) {
		p.b.WriteString(";\n")
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StringLit:
		return quote(x.Value)
	case *ast.IntLit:
		return strconv.FormatInt(x.Value, 10)
	case *ast.RealLit:
		s := strconv.FormatFloat(x.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *ast.BoolLit:
		return strconv.FormatBool(x.Value)
	case *ast.FeatureRef:
		return x.Path.String()
	}
	return ""
}

func quote(s string) string {
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\'':
			b.WriteString(`\'`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('\'')
	return b.String()
}
