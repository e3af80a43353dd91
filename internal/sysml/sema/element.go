// Package sema resolves a parsed SysML v2 syntax tree into a typed element
// graph: names are bound, specializations are linked and checked for cycles,
// inherited features are made visible, redefinitions and binding connectors
// are resolved, and methodology-level well-formedness rules are enforced
// (e.g. abstract definitions cannot be instantiated directly).
package sema

import (
	"fmt"
	"strings"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

// ElemKind classifies resolved elements.
type ElemKind uint8

const (
	KindPackage ElemKind = iota
	KindPartDef
	KindAttributeDef
	KindPortDef
	KindActionDef
	KindInterfaceDef
	KindConnectionDef
	KindPartUsage
	KindAttributeUsage
	KindPortUsage
	KindActionUsage
	KindInterfaceUsage
	KindConnectionUsage
	KindEndUsage
	KindBind
	KindConnect
	KindPerform
	KindBuiltin // builtin scalar type (String, Integer, ...)
)

var elemKindNames = [...]string{
	"package", "part def", "attribute def", "port def", "action def",
	"interface def", "connection def", "part", "attribute", "port",
	"action", "interface", "connection", "end", "bind", "connect",
	"perform", "builtin",
}

func (k ElemKind) String() string {
	if int(k) < len(elemKindNames) {
		return elemKindNames[k]
	}
	return "element?"
}

// IsDef reports whether the kind is a definition (including builtins).
func (k ElemKind) IsDef() bool {
	switch k {
	case KindPartDef, KindAttributeDef, KindPortDef, KindActionDef,
		KindInterfaceDef, KindConnectionDef, KindBuiltin:
		return true
	}
	return false
}

// IsUsage reports whether the kind is a usage.
func (k ElemKind) IsUsage() bool {
	switch k {
	case KindPartUsage, KindAttributeUsage, KindPortUsage, KindActionUsage,
		KindInterfaceUsage, KindConnectionUsage, KindEndUsage:
		return true
	}
	return false
}

// Element is a node of the resolved model graph. Its layout is kept at
// 256 bytes: a model has one per definition, usage and connector, and is
// resolved on every generator run.
type Element struct {
	Kind ElemKind
	// Direction and the flags share the word Kind starts.
	Direction  ast.Direction
	Abstract   bool
	Conjugated bool // usage typed by "~T"
	Ref        bool
	// supersFrozen marks allSupers as final; hasImports says the resolver
	// holds import records for this scope.
	supersFrozen bool
	hasImports   bool

	Name  string
	Owner *Element

	// Members in declaration order. byName indexes them only when there
	// are more than scanLimit; Member scans shorter lists.
	Members []*Element
	byName  map[string]*Element

	// Node is the syntax the element was built from: an *ast.Package,
	// *ast.Definition, *ast.Usage, *ast.Bind, *ast.Connect or *ast.Perform
	// (nil for builtins and the root).
	Node ast.Member

	// Definitions.
	Supers []*Element // resolved ":>" targets

	// Usages.
	Type *Element // resolved type definition (may be nil)
	// RefTarget is the referenced usage for "ref part x;" members: the
	// ref is a transparent alias, so feature paths may step through it
	// into the referenced part's members.
	RefTarget    *Element
	Multiplicity *ast.Multiplicity
	Redefines    []*Element // resolved redefined features
	Subsets      []*Element
	Value        ast.Expr // declared value, if any

	// Connectors: the resolved ends of the paths in Node.
	BindLeft, BindRight    *Element
	ConnectFrom, ConnectTo *Element
	PerformTarget          *Element

	// allSupers memoizes the transitive specialization closure. It is
	// frozen by the resolver once every ":>" target is linked (Supers
	// never changes afterwards); until then AllSupers computes fresh.
	allSupers []*Element
}

// scanLimit is the member count up to which Member scans Members instead
// of keeping a name index: most elements have a handful of members.
const scanLimit = 8

type importRec struct {
	path      *ast.QualifiedName
	wildcard  bool
	recursive bool
	target    *Element // resolved lazily
	private   bool
}

// Pos returns the element's source position (zero for builtins). A
// connector is positioned at its first path.
func (e *Element) Pos() token.Position {
	switch n := e.Node.(type) {
	case nil:
	case *ast.Bind:
		if n.Left != nil {
			return n.Left.Position
		}
	case *ast.Connect:
		if n.From != nil {
			return n.From.Position
		}
	case *ast.Perform:
		if n.Target != nil {
			return n.Target.Position
		}
	default:
		return n.Pos()
	}
	return token.Position{}
}

// QualifiedName returns the "::"-joined path from the root to this element.
func (e *Element) QualifiedName() string {
	var parts []string
	for x := e; x != nil && x.Name != ""; x = x.Owner {
		parts = append(parts, x.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "::")
}

// Member returns the directly declared member with the given name, or nil.
// The first declaration of a duplicated name wins.
func (e *Element) Member(name string) *Element {
	if e == nil || name == "" {
		return nil
	}
	if e.byName != nil {
		return e.byName[name]
	}
	for _, m := range e.Members {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// addMember registers m as a member of e. Duplicate names are reported by
// the resolver; the first declaration wins in the name table.
func (e *Element) addMember(m *Element) (dup bool) {
	if m.Name != "" && e.Member(m.Name) != nil {
		dup = true
	}
	m.Owner = e
	e.Members = append(e.Members, m)
	if !dup && m.Name != "" && e.byName != nil {
		e.byName[m.Name] = m
	}
	return dup
}

// AllSupers returns the transitive specialization closure in BFS order,
// excluding e itself. Safe on cyclic input (visits each def once). The
// closure is served from a per-element cache once resolution has linked
// all specializations — the walk is on the hot path of every inherited
// member lookup during extraction.
func (e *Element) AllSupers() []*Element {
	if e.supersFrozen {
		return e.allSupers
	}
	return e.appendAllSupers(nil)
}

// appendAllSupers appends the closure to out and returns it. The appended
// run is both the BFS queue and the visited set, so the walk allocates
// only when out has to grow.
func (e *Element) appendAllSupers(out []*Element) []*Element {
	base := len(out)
	out = appendUnvisited(out, base, e, e.Supers)
	for i := base; i < len(out); i++ {
		out = appendUnvisited(out, base, e, out[i].Supers)
	}
	return out
}

// appendUnvisited appends each of supers that is neither nil, self nor
// already in out[base:].
func appendUnvisited(out []*Element, base int, self *Element, supers []*Element) []*Element {
next:
	for _, s := range supers {
		if s == nil || s == self {
			continue
		}
		for _, v := range out[base:] {
			if v == s {
				continue next
			}
		}
		out = append(out, s)
	}
	return out
}

// SpecializesDef reports whether e (a definition) transitively specializes
// the definition named defName (matched on simple name).
func (e *Element) SpecializesDef(defName string) bool {
	if e.Name == defName {
		return true
	}
	for _, s := range e.AllSupers() {
		if s.Name == defName {
			return true
		}
	}
	return false
}

// InheritedMember looks up a feature by name on e and, failing that, on its
// specialization closure. Used to resolve redefinitions and feature paths
// through typed usages.
func (e *Element) InheritedMember(name string) *Element {
	if m := e.Member(name); m != nil {
		return m
	}
	supers := e.allSupers
	if !e.supersFrozen {
		// Before the freeze (the resolver's header pass) the closure is
		// walked per lookup; a stack buffer keeps that walk off the heap.
		var buf [16]*Element
		supers = e.appendAllSupers(buf[:0])
	}
	for _, s := range supers {
		if m := s.Member(name); m != nil {
			return m
		}
	}
	return nil
}

// EffectiveMembers returns e's members plus inherited members from the
// specialization closure that are not shadowed (by name) by a nearer
// declaration. Order: own members first, then supers in BFS order.
func (e *Element) EffectiveMembers() []*Element {
	var out []*Element
	seen := map[string]bool{}
	appendNew := func(ms []*Element) {
		for _, m := range ms {
			if m.Name != "" && seen[m.Name] {
				continue
			}
			if m.Name != "" {
				seen[m.Name] = true
			}
			out = append(out, m)
		}
	}
	appendNew(e.Members)
	for _, s := range e.AllSupers() {
		appendNew(s.Members)
	}
	return out
}

// EffectiveDirection returns the direction of a feature as seen through a
// possibly conjugated usage: conjugation flips in and out.
func EffectiveDirection(d ast.Direction, conjugated bool) ast.Direction {
	if !conjugated {
		return d
	}
	switch d {
	case ast.DirIn:
		return ast.DirOut
	case ast.DirOut:
		return ast.DirIn
	}
	return d
}

// TypeOrSelf returns the usage's type if resolved, otherwise nil for defs
// the element itself when it is a definition.
func (e *Element) TypeOrSelf() *Element {
	if e.Kind.IsDef() {
		return e
	}
	return e.Type
}

// Walk visits e and all transitive members depth-first.
func (e *Element) Walk(fn func(*Element) bool) {
	if e == nil || !fn(e) {
		return
	}
	for _, m := range e.Members {
		m.Walk(fn)
	}
}

// String renders "kind name" for diagnostics.
func (e *Element) String() string {
	if e == nil {
		return "<nil element>"
	}
	if e.Name == "" {
		return fmt.Sprintf("<anonymous %s>", e.Kind)
	}
	return fmt.Sprintf("%s %s", e.Kind, e.Name)
}
