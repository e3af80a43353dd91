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
type ElemKind int

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

// Element is a node of the resolved model graph.
type Element struct {
	Kind  ElemKind
	Name  string
	Owner *Element

	// Members in declaration order and by name.
	Members []*Element
	byName  map[string]*Element

	// Syntax provenance (nil for builtins).
	Def   *ast.Definition
	Usage *ast.Usage
	Pkg   *ast.Package

	// Definitions.
	Abstract bool
	Supers   []*Element // resolved ":>" targets

	// Usages.
	Type *Element // resolved type definition (may be nil)
	// RefTarget is the referenced usage for "ref part x;" members: the
	// ref is a transparent alias, so feature paths may step through it
	// into the referenced part's members.
	RefTarget    *Element
	Conjugated   bool // usage typed by "~T"
	Direction    ast.Direction
	Ref          bool
	Multiplicity *ast.Multiplicity
	Redefines    []*Element // resolved redefined features
	Subsets      []*Element
	Value        ast.Expr // declared value, if any

	// Connectors.
	BindLeft, BindRight        *Element
	ConnectFrom, ConnectTo     *Element
	PerformTarget              *Element
	LeftPath, RightPath        *ast.FeaturePath
	FromPath, ToPath, PerfPath *ast.FeaturePath

	// Imports owned by this element (packages mostly).
	imports []*importRec

	// allSupers memoizes the transitive specialization closure. It is
	// frozen by the resolver once every ":>" target is linked (Supers
	// never changes afterwards); until then AllSupers computes fresh.
	allSupers    []*Element
	supersFrozen bool
}

type importRec struct {
	path      *ast.QualifiedName
	wildcard  bool
	recursive bool
	target    *Element // resolved lazily
	private   bool
}

// Pos returns the element's source position (zero for builtins).
func (e *Element) Pos() token.Position {
	switch {
	case e.Def != nil:
		return e.Def.Position
	case e.Usage != nil:
		return e.Usage.Position
	case e.Pkg != nil:
		return e.Pkg.Position
	case e.LeftPath != nil:
		return e.LeftPath.Position
	case e.FromPath != nil:
		return e.FromPath.Position
	case e.PerfPath != nil:
		return e.PerfPath.Position
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
func (e *Element) Member(name string) *Element {
	if e == nil || e.byName == nil {
		return nil
	}
	return e.byName[name]
}

// addMember registers m as a member of e. Duplicate names are reported by
// the resolver; the first declaration wins in the name table.
func (e *Element) addMember(m *Element) (dup bool) {
	m.Owner = e
	e.Members = append(e.Members, m)
	if m.Name == "" {
		return false
	}
	if e.byName == nil {
		e.byName = make(map[string]*Element)
	}
	if _, exists := e.byName[m.Name]; exists {
		return true
	}
	e.byName[m.Name] = m
	return false
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
	return e.computeAllSupers()
}

// freezeSupers caches the closure; the resolver calls it on every element
// after the header pass, when Supers is final.
func (e *Element) freezeSupers() {
	e.allSupers = e.computeAllSupers()
	e.supersFrozen = true
}

func (e *Element) computeAllSupers() []*Element {
	var out []*Element
	seen := map[*Element]bool{e: true}
	queue := append([]*Element(nil), e.Supers...)
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == nil || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
		queue = append(queue, s.Supers...)
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
	for _, s := range e.AllSupers() {
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
