// Package ast declares the syntax tree produced by the SysML v2 parser.
//
// The tree mirrors the textual notation's definition/usage paradigm:
// Definition nodes introduce reusable types (part def, port def, ...) and
// Usage nodes instantiate or reference them in context (part, port, ...).
// Relationship shorthands (":>" specialization, ":>>" redefinition) are
// stored on the owning node and resolved by package sema.
package ast

import (
	"strings"

	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

// Node is implemented by every syntax-tree node.
type Node interface {
	Pos() token.Position
}

// Member is a node that may appear inside a package or body block.
type Member interface {
	Node
	memberNode()
}

// ---------------------------------------------------------------------------
// Names

// QualifiedName is a "::"-separated name path such as ISA95::Topology.
type QualifiedName struct {
	Parts    []string
	Position token.Position
}

func (q *QualifiedName) Pos() token.Position { return q.Position }

// String renders the canonical "A::B::C" spelling.
func (q *QualifiedName) String() string { return strings.Join(q.Parts, "::") }

// Base returns the last segment of the qualified name.
func (q *QualifiedName) Base() string {
	if len(q.Parts) == 0 {
		return ""
	}
	return q.Parts[len(q.Parts)-1]
}

// FeaturePath is a "."-separated feature chain such as driver.params.ip,
// optionally rooted at a qualified name.
type FeaturePath struct {
	Parts    []string
	Position token.Position
}

func (f *FeaturePath) Pos() token.Position { return f.Position }

// String renders the canonical dotted spelling.
func (f *FeaturePath) String() string { return strings.Join(f.Parts, ".") }

// ---------------------------------------------------------------------------
// Kinds, directions, multiplicity

// DefKind discriminates definition nodes.
type DefKind int

const (
	DefPart DefKind = iota
	DefAttribute
	DefPort
	DefAction
	DefInterface
	DefConnection
	DefItem
)

var defKindNames = [...]string{"part", "attribute", "port", "action", "interface", "connection", "item"}

func (k DefKind) String() string {
	if int(k) < len(defKindNames) {
		return defKindNames[k]
	}
	return "def?"
}

// UsageKind discriminates usage nodes.
type UsageKind int

const (
	UsePart UsageKind = iota
	UseAttribute
	UsePort
	UseAction
	UseInterface
	UseConnection
	UseEnd  // interface end
	UseItem // item usage
)

var usageKindNames = [...]string{"part", "attribute", "port", "action", "interface", "connection", "end", "item"}

func (k UsageKind) String() string {
	if int(k) < len(usageKindNames) {
		return usageKindNames[k]
	}
	return "usage?"
}

// Direction is a feature's data-flow direction.
type Direction uint8

const (
	DirNone Direction = iota
	DirIn
	DirOut
	DirInOut
)

func (d Direction) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	}
	return ""
}

// Multiplicity is a "[lower..upper]" bound; Upper == Many means "*".
type Multiplicity struct {
	Lower    int
	Upper    int // Many for "*"
	Position token.Position
}

// Many is the unbounded upper multiplicity ("*").
const Many = -1

func (m *Multiplicity) Pos() token.Position { return m.Position }

// String renders "[n]", "[n..m]" or "[*]".
func (m *Multiplicity) String() string {
	switch {
	case m.Lower == 0 && m.Upper == Many:
		return "[*]"
	case m.Upper == Many:
		return "[" + itoa(m.Lower) + "..*]"
	case m.Lower == m.Upper:
		return "[" + itoa(m.Lower) + "]"
	default:
		return "[" + itoa(m.Lower) + ".." + itoa(m.Upper) + "]"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is a literal or a feature reference appearing after "=".
type Expr interface {
	Node
	exprNode()
}

// StringLit is a quoted string literal.
type StringLit struct {
	Value    string
	Position token.Position
}

// IntLit is an integer literal.
type IntLit struct {
	Value    int64
	Position token.Position
}

// RealLit is a real (floating point) literal.
type RealLit struct {
	Value    float64
	Position token.Position
}

// BoolLit is "true" or "false".
type BoolLit struct {
	Value    bool
	Position token.Position
}

// FeatureRef is an expression referencing another feature by path.
type FeatureRef struct {
	Path *FeaturePath
}

func (e *StringLit) Pos() token.Position  { return e.Position }
func (e *IntLit) Pos() token.Position     { return e.Position }
func (e *RealLit) Pos() token.Position    { return e.Position }
func (e *BoolLit) Pos() token.Position    { return e.Position }
func (e *FeatureRef) Pos() token.Position { return e.Path.Position }

func (*StringLit) exprNode()  {}
func (*IntLit) exprNode()     {}
func (*RealLit) exprNode()    {}
func (*BoolLit) exprNode()    {}
func (*FeatureRef) exprNode() {}

// ---------------------------------------------------------------------------
// Structure

// File is a parsed compilation unit.
type File struct {
	Name     string // source file name
	Members  []Member
	Position token.Position
}

func (f *File) Pos() token.Position { return f.Position }

// Package groups members under a namespace.
type Package struct {
	Name     string
	Members  []Member
	Doc      string
	Position token.Position
}

// Import brings a package's (or element's) names into scope.
// Wildcard imports end in "::*"; Recursive imports end in "::**".
type Import struct {
	Private   bool
	Path      *QualifiedName
	Wildcard  bool
	Recursive bool
	Position  token.Position
}

// TypeRef references a definition as a usage's type; Conjugated records a
// leading "~" which flips feature directions.
type TypeRef struct {
	Conjugated bool
	Name       *QualifiedName
}

func (t *TypeRef) Pos() token.Position { return t.Name.Position }

// String renders the reference, including the conjugation mark.
func (t *TypeRef) String() string {
	if t.Conjugated {
		return "~" + t.Name.String()
	}
	return t.Name.String()
}

// Definition is a part/attribute/port/action/interface/connection "def".
type Definition struct {
	Kind        DefKind
	Abstract    bool
	Name        string
	Specializes []*QualifiedName // ":>" / "specializes"
	Members     []Member
	Doc         string
	Position    token.Position
}

// Usage instantiates or references a definition in context. The same node
// covers plain usages ("part emco : EMCO { ... }"), referential usages
// ("ref part Machine[*];"), parameters of actions ("out ready : Boolean;"),
// redefinitions (":>> ip = '10...';") and interface ends.
type Usage struct {
	Kind UsageKind
	// ImplicitKind marks usages written without their kind keyword
	// (directional parameters like "out ready : Boolean;"); the printer
	// restores the short form.
	ImplicitKind bool
	Direction    Direction
	Ref          bool
	Abstract     bool
	Name         string // may be "" for anonymous redefinitions
	Type         *TypeRef
	Multiplicity *Multiplicity
	Specializes  []*QualifiedName // ":>" on a usage (subsetting/specialization)
	Redefines    []*FeaturePath   // ":>>" / "redefines"
	Subsets      []*FeaturePath   // "subsets"
	Value        Expr             // "= expr"
	Members      []Member
	Doc          string
	Position     token.Position
}

// Bind is a binding connector: "bind a.b = c;".
type Bind struct {
	Left     *FeaturePath
	Right    *FeaturePath
	Position token.Position
}

// Connect is a connection usage: "connect a.b to c.d;". When written as an
// interface usage ("interface x : IDef connect a to b;") the usage wraps it.
type Connect struct {
	Name     string // optional connection name
	Type     *TypeRef
	From     *FeaturePath
	To       *FeaturePath
	Position token.Position
}

// Perform invokes an action through a port: "perform p.operation { ... }".
// Body members are parameter bindings (usages with direction and value).
type Perform struct {
	Target   *FeaturePath
	Members  []Member
	Position token.Position
}

// Doc is a standalone documentation comment: doc /* ... */.
type Doc struct {
	Text     string
	Position token.Position
}

// Comment is a retained non-doc comment.
type Comment struct {
	Text     string
	Position token.Position
}

func (p *Package) Pos() token.Position    { return p.Position }
func (i *Import) Pos() token.Position     { return i.Position }
func (d *Definition) Pos() token.Position { return d.Position }
func (u *Usage) Pos() token.Position      { return u.Position }
func (b *Bind) Pos() token.Position       { return b.Position }
func (c *Connect) Pos() token.Position    { return c.Position }
func (p *Perform) Pos() token.Position    { return p.Position }
func (d *Doc) Pos() token.Position        { return d.Position }
func (c *Comment) Pos() token.Position    { return c.Position }

func (*Package) memberNode()    {}
func (*Import) memberNode()     {}
func (*Definition) memberNode() {}
func (*Usage) memberNode()      {}
func (*Bind) memberNode()       {}
func (*Connect) memberNode()    {}
func (*Perform) memberNode()    {}
func (*Doc) memberNode()        {}
func (*Comment) memberNode()    {}

// ---------------------------------------------------------------------------
// Traversal

// Inspect walks the subtree rooted at n depth-first, calling fn for each
// node. If fn returns false the node's children are skipped.
func Inspect(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *File:
		for _, m := range x.Members {
			Inspect(m, fn)
		}
	case *Package:
		for _, m := range x.Members {
			Inspect(m, fn)
		}
	case *Definition:
		for _, m := range x.Members {
			Inspect(m, fn)
		}
	case *Usage:
		for _, m := range x.Members {
			Inspect(m, fn)
		}
	case *Perform:
		for _, m := range x.Members {
			Inspect(m, fn)
		}
	}
}

// CountKind returns the number of nodes in the subtree for which pred is true.
func CountKind(n Node, pred func(Node) bool) int {
	count := 0
	Inspect(n, func(n Node) bool {
		if pred(n) {
			count++
		}
		return true
	})
	return count
}
