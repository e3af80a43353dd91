package sema

import (
	"fmt"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
	"github.com/smartfactory/sysml2conf/internal/sysml/slab"
	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

// Model is the resolved element graph for a set of compilation units.
type Model struct {
	// Root is a synthetic namespace containing every top-level member of
	// every file, plus the implicit builtin library.
	Root *Element
	// Diags collects warnings and errors found during resolution.
	Diags DiagnosticList

	files []*ast.File

	// byName indexes elements by simple name (built lazily; resolution
	// must be complete before first use).
	byName map[string][]*Element
}

// index returns the name index, building it on first use.
func (m *Model) index() map[string][]*Element {
	if m.byName == nil {
		m.byName = map[string][]*Element{}
		m.Root.Walk(func(e *Element) bool {
			if e.Name != "" {
				m.byName[e.Name] = append(m.byName[e.Name], e)
			}
			return true
		})
	}
	return m.byName
}

// ElementsNamed returns every element with the given simple name, in
// model (depth-first) order.
func (m *Model) ElementsNamed(name string) []*Element {
	return m.index()[name]
}

// Resolve builds and resolves the element graph for the given files.
// The returned Model is usable even when err != nil (partial resolution);
// err is the DiagnosticList filtered to errors.
func Resolve(files ...*ast.File) (*Model, error) {
	r := &resolver{model: &Model{files: files}}
	root := r.newElement(KindPackage, "", nil)
	r.model.Root = root
	n := 1
	for _, f := range files {
		n += countElements(f.Members)
	}
	r.reserveMembers(root, n)
	root.addMember(r.newBuiltinScope())
	for _, f := range files {
		for _, m := range f.Members {
			if e := r.build(m); e != nil {
				if root.addMember(e) {
					r.errorf(e.Pos(), "duplicate top-level name %q", e.Name)
				}
			}
		}
	}
	r.resolveAll(root)
	r.checkCycles()
	r.checkAll(root)
	if errs := r.model.Diags.Errors(); len(errs) > 0 {
		return r.model, errs
	}
	return r.model, nil
}

// MustResolve resolves or panics; for tests and embedded known-good models.
func MustResolve(files ...*ast.File) *Model {
	m, err := Resolve(files...)
	if err != nil {
		panic(fmt.Sprintf("sema.MustResolve: %v", err))
	}
	return m
}

type resolver struct {
	model *Model

	// imports holds the import records of each scope with hasImports set.
	imports map[*Element][]importRec

	// The slabs of this call (see package slab): elements, and the
	// Members, Supers, Redefines, Subsets and closure slices. They belong
	// to the returned Model.
	elems []Element
	lists []*Element
}

const (
	elemChunk = 256  // elements per full chunk of the element slab
	listChunk = 1024 // pointers per full chunk of the list slab
)

func (r *resolver) newElement(kind ElemKind, name string, node ast.Member) *Element {
	e := slab.New(&r.elems, elemChunk)
	e.Kind, e.Name, e.Node = kind, name, node
	return e
}

// reserveMembers sizes e's member list, and its name index when Member
// would otherwise scan more than scanLimit names, for n members.
func (r *resolver) reserveMembers(e *Element, n int) {
	e.Members = slab.Make(&r.lists, listChunk, n)[:0]
	if n > scanLimit {
		e.byName = make(map[string]*Element, n)
	}
}

// appendList is append for the slab-backed lists of an element.
func (r *resolver) appendList(list []*Element, x *Element) []*Element {
	return slab.Append(&r.lists, listChunk, list, x)
}

func (r *resolver) errorf(pos token.Position, format string, args ...any) {
	r.model.Diags = append(r.model.Diags, Diagnostic{Severity: Err, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (r *resolver) warnf(pos token.Position, format string, args ...any) {
	r.model.Diags = append(r.model.Diags, Diagnostic{Severity: Warning, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Pass 1: build element tree

func (r *resolver) build(m ast.Member) *Element {
	switch n := m.(type) {
	case *ast.Package:
		e := r.newElement(KindPackage, n.Name, n)
		r.buildMembers(e, n.Members)
		return e
	case *ast.Definition:
		e := r.newElement(defElemKind(n.Kind), n.Name, n)
		e.Abstract = n.Abstract
		r.buildMembers(e, n.Members)
		return e
	case *ast.Usage:
		e := r.newElement(usageElemKind(n.Kind), n.Name, n)
		e.Direction = n.Direction
		e.Ref = n.Ref
		e.Abstract = n.Abstract
		e.Multiplicity = n.Multiplicity
		e.Value = n.Value
		r.buildMembers(e, n.Members)
		return e
	case *ast.Bind:
		return r.newElement(KindBind, "", n)
	case *ast.Connect:
		return r.newElement(KindConnect, n.Name, n)
	case *ast.Perform:
		e := r.newElement(KindPerform, "", n)
		r.buildMembers(e, n.Members)
		return e
	}
	// Imports are registered on the owner by buildMembers; docs and
	// comments build nothing.
	return nil
}

// countElements returns how many of members build an element.
func countElements(members []ast.Member) int {
	n := 0
	for _, m := range members {
		switch m.(type) {
		case *ast.Package, *ast.Definition, *ast.Usage, *ast.Bind, *ast.Connect, *ast.Perform:
			n++
		}
	}
	return n
}

func (r *resolver) buildMembers(owner *Element, members []ast.Member) {
	r.reserveMembers(owner, countElements(members))
	for _, m := range members {
		if imp, ok := m.(*ast.Import); ok {
			if r.imports == nil {
				r.imports = map[*Element][]importRec{}
			}
			r.imports[owner] = append(r.imports[owner], importRec{
				path: imp.Path, wildcard: imp.Wildcard, recursive: imp.Recursive, private: imp.Private,
			})
			owner.hasImports = true
			continue
		}
		e := r.build(m)
		if e == nil {
			continue
		}
		if owner.addMember(e) {
			r.errorf(e.Pos(), "duplicate member name %q in %s", e.Name, owner)
		}
	}
}

func defElemKind(k ast.DefKind) ElemKind {
	switch k {
	case ast.DefPart:
		return KindPartDef
	case ast.DefAttribute:
		return KindAttributeDef
	case ast.DefPort:
		return KindPortDef
	case ast.DefAction:
		return KindActionDef
	case ast.DefInterface:
		return KindInterfaceDef
	case ast.DefConnection:
		return KindConnectionDef
	case ast.DefItem:
		// Items (things that flow: workpieces, pallets) are structurally
		// part-like for extraction and counting purposes.
		return KindPartDef
	}
	return KindPartDef
}

func usageElemKind(k ast.UsageKind) ElemKind {
	switch k {
	case ast.UsePart:
		return KindPartUsage
	case ast.UseAttribute:
		return KindAttributeUsage
	case ast.UsePort:
		return KindPortUsage
	case ast.UseAction:
		return KindActionUsage
	case ast.UseInterface:
		return KindInterfaceUsage
	case ast.UseConnection:
		return KindConnectionUsage
	case ast.UseEnd:
		return KindEndUsage
	case ast.UseItem:
		return KindPartUsage
	}
	return KindPartUsage
}

// ---------------------------------------------------------------------------
// Name lookup

// lookupLexical resolves a simple name from a starting element outward:
// the element's own members, inherited members through its type or supers,
// the element itself (self-name), then enclosing scopes, then imports, and
// finally the builtin library.
func (r *resolver) lookupLexical(from *Element, name string) *Element {
	return r.lookupLexicalExcluding(from, name, nil)
}

// lookupLexicalExcluding is lookupLexical with one element masked out —
// needed when resolving "ref part x;" so the ref does not resolve to
// itself and shadows the referenced part in an outer scope.
func (r *resolver) lookupLexicalExcluding(from *Element, name string, exclude *Element) *Element {
	for scope := from; scope != nil; scope = scope.Owner {
		if m := scope.Member(name); m != nil && m != exclude {
			return m
		}
		if scope.Kind.IsDef() {
			if m := scope.InheritedMember(name); m != nil {
				return m
			}
		}
		if scope.Type != nil {
			if m := scope.Type.InheritedMember(name); m != nil {
				return m
			}
		}
		if scope.Name == name {
			return scope
		}
		if m := r.lookupImports(scope, name); m != nil {
			return m
		}
	}
	// Builtins.
	if lib := r.model.Root.Member("ScalarValues"); lib != nil {
		if m := lib.Member(name); m != nil {
			return m
		}
	}
	return nil
}

func (r *resolver) lookupImports(scope *Element, name string) *Element {
	if !scope.hasImports {
		return nil
	}
	recs := r.imports[scope]
	for i := range recs {
		imp := &recs[i]
		if imp.target == nil {
			imp.target = r.resolveQualified(scope.Owner, imp.path)
		}
		t := imp.target
		if t == nil {
			continue
		}
		if imp.wildcard {
			if m := t.Member(name); m != nil {
				return m
			}
			if imp.recursive {
				var found *Element
				t.Walk(func(e *Element) bool {
					if found == nil && e != t && e.Name == name {
						found = e
					}
					return found == nil
				})
				if found != nil {
					return found
				}
			}
		} else if t.Name == name {
			return t
		}
	}
	return nil
}

// resolveQualified resolves "A::B::C" starting lexically at from.
func (r *resolver) resolveQualified(from *Element, q *ast.QualifiedName) *Element {
	if q == nil || len(q.Parts) == 0 {
		return nil
	}
	cur := r.lookupLexical(from, q.Parts[0])
	if cur == nil {
		// Absolute fallback: top-level name.
		cur = r.model.Root.Member(q.Parts[0])
	}
	for _, part := range q.Parts[1:] {
		if cur == nil {
			return nil
		}
		cur = memberThrough(cur, part)
	}
	return cur
}

// memberThrough finds a feature by name through an element: its own
// members, then (for defs) inherited members, then (for usages) the type's
// inherited members.
func memberThrough(e *Element, name string) *Element {
	if e == nil {
		return nil
	}
	if m := e.Member(name); m != nil {
		return m
	}
	if e.RefTarget != nil {
		if m := memberThrough(e.RefTarget, name); m != nil {
			return m
		}
	}
	if e.Kind.IsDef() {
		return e.InheritedMember(name)
	}
	if e.Type != nil {
		return e.Type.InheritedMember(name)
	}
	return nil
}

// resolveFeaturePath resolves a dotted feature chain starting lexically.
func (r *resolver) resolveFeaturePath(from *Element, p *ast.FeaturePath) *Element {
	if p == nil || len(p.Parts) == 0 {
		return nil
	}
	cur := r.lookupLexical(from, p.Parts[0])
	for _, part := range p.Parts[1:] {
		if cur == nil {
			return nil
		}
		cur = memberThrough(cur, part)
	}
	return cur
}

// ---------------------------------------------------------------------------
// Pass 2: resolve specializations, types, feature references

func (r *resolver) resolveAll(e *Element) {
	// Two sub-passes so that types are available before feature paths are
	// resolved: (a) specializations and usage types, (b) feature paths.
	e.Walk(func(x *Element) bool {
		r.resolveHeader(x)
		return true
	})
	// Specializations are final now; freeze the per-element closure cache
	// so the feature-path pass and later extraction queries stop re-walking
	// specialization chains.
	var closure []*Element // each closure is walked here, then copied out
	e.Walk(func(x *Element) bool {
		closure = x.appendAllSupers(closure[:0])
		x.allSupers = slab.Append(&r.lists, listChunk, nil, closure...)
		x.supersFrozen = true
		return true
	})
	e.Walk(func(x *Element) bool {
		r.resolveRefs(x)
		return true
	})
}

func (r *resolver) resolveHeader(e *Element) {
	switch n := e.Node.(type) {
	case *ast.Definition:
		for _, sup := range n.Specializes {
			t := r.resolveQualified(e.Owner, sup)
			if t == nil {
				r.errorf(sup.Position, "cannot resolve specialization target %q of %s", sup, e)
				continue
			}
			if !t.Kind.IsDef() {
				r.errorf(sup.Position, "%s specializes %s, which is not a definition", e, t)
				continue
			}
			e.Supers = r.appendList(e.Supers, t)
		}
	case *ast.Usage:
		if tr := n.Type; tr != nil {
			t := r.resolveQualified(e.Owner, tr.Name)
			if t == nil {
				r.errorf(tr.Name.Position, "cannot resolve type %q of %s", tr.Name, e)
			} else if !t.Kind.IsDef() {
				// Usages may also be typed by other usages (subsetting a
				// usage); accept but record as-is.
				e.Type = t
			} else {
				e.Type = t
			}
			e.Conjugated = tr.Conjugated
		} else if e.Ref && e.Name != "" {
			// "ref part Machine [*];" — name doubles as the referenced
			// definition or usage.
			if t := r.lookupLexicalExcluding(e.Owner, e.Name, e); t != nil && t != e {
				e.Type = t.TypeOrSelf()
				if t.Kind.IsUsage() {
					e.RefTarget = t
				}
			}
		}
		for _, sup := range n.Specializes {
			if t := r.resolveQualified(e.Owner, sup); t != nil {
				e.Supers = r.appendList(e.Supers, t)
			} else {
				r.errorf(sup.Position, "cannot resolve %q specialized by %s", sup, e)
			}
		}
	}
}

func (r *resolver) resolveRefs(e *Element) {
	switch n := e.Node.(type) {
	case *ast.Bind:
		e.BindLeft = r.resolveFeaturePath(e.Owner, n.Left)
		e.BindRight = r.resolveFeaturePath(e.Owner, n.Right)
		if e.BindLeft == nil {
			r.errorf(n.Left.Position, "cannot resolve bind endpoint %q", n.Left)
		}
		if e.BindRight == nil {
			r.errorf(n.Right.Position, "cannot resolve bind endpoint %q", n.Right)
		}
	case *ast.Connect:
		e.ConnectFrom = r.resolveFeaturePath(e.Owner, n.From)
		e.ConnectTo = r.resolveFeaturePath(e.Owner, n.To)
		if e.ConnectFrom == nil {
			r.errorf(n.From.Position, "cannot resolve connect endpoint %q", n.From)
		}
		if e.ConnectTo == nil {
			r.errorf(n.To.Position, "cannot resolve connect endpoint %q", n.To)
		}
	case *ast.Perform:
		e.PerformTarget = r.resolveFeaturePath(e.Owner, n.Target)
		if e.PerformTarget == nil {
			r.errorf(n.Target.Position, "cannot resolve perform target %q", n.Target)
		}
	case *ast.Usage:
		for _, rd := range n.Redefines {
			t := r.resolveRedefined(e, rd)
			if t == nil {
				r.errorf(rd.Position, "cannot resolve redefined feature %q", rd)
				continue
			}
			e.Redefines = r.appendList(e.Redefines, t)
		}
		for _, sb := range n.Subsets {
			if t := r.resolveFeaturePath(e.Owner, sb); t != nil {
				e.Subsets = r.appendList(e.Subsets, t)
			} else {
				r.errorf(sb.Position, "cannot resolve subsetted feature %q", sb)
			}
		}
		if ref, ok := n.Value.(*ast.FeatureRef); ok {
			if r.resolveFeaturePath(e.Owner, ref.Path) == nil {
				r.errorf(ref.Path.Position, "cannot resolve value reference %q", ref.Path)
			}
		}
	}
}

// resolveRedefined resolves the target of ":>> path": the redefined feature
// must be visible through the owner (an inherited or typed feature).
func (r *resolver) resolveRedefined(e *Element, p *ast.FeaturePath) *Element {
	owner := e.Owner
	if owner == nil || len(p.Parts) == 0 {
		return nil
	}
	// First segment through the owner's type/supers (the usual case:
	// ":>> ip = ..." inside "part emcoParameters : EMCOParameters").
	cur := memberThrough(owner, p.Parts[0])
	if cur == nil {
		cur = r.lookupLexical(e, p.Parts[0])
	}
	for _, part := range p.Parts[1:] {
		if cur == nil {
			return nil
		}
		cur = memberThrough(cur, part)
	}
	if cur == e {
		return nil
	}
	return cur
}

// ---------------------------------------------------------------------------
// Pass 3: checks

// checkCycles detects cyclic specialization.
func (r *resolver) checkCycles() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[*Element]int{}
	var visit func(e *Element) bool
	visit = func(e *Element) bool {
		switch state[e] {
		case gray:
			return true // cycle
		case black:
			return false
		}
		state[e] = gray
		for _, s := range e.Supers {
			if visit(s) {
				state[e] = black
				r.errorf(e.Pos(), "specialization cycle involving %s", e)
				return false // report once per cycle entry
			}
		}
		state[e] = black
		return false
	}
	r.model.Root.Walk(func(e *Element) bool {
		if e.Kind.IsDef() && state[e] == white {
			visit(e)
		}
		return true
	})
}

func (r *resolver) checkAll(root *Element) {
	root.Walk(func(e *Element) bool {
		r.checkElement(e)
		return true
	})
}

func (r *resolver) checkElement(e *Element) {
	// Abstract instantiation: a non-ref usage directly typed by an abstract
	// definition is an error (abstract defs are templates).
	if e.Kind.IsUsage() && !e.Ref && !e.Abstract && e.Type != nil &&
		e.Type.Kind.IsDef() && e.Type.Abstract {
		r.errorf(e.Pos(), "%s instantiates abstract %s; specialize it instead", e, e.Type)
	}
	// Multiplicity sanity.
	if m := e.Multiplicity; m != nil {
		if m.Upper != ast.Many && m.Lower > m.Upper {
			r.errorf(m.Position, "invalid multiplicity %s on %s", m, e)
		}
		if m.Lower < 0 {
			r.errorf(m.Position, "negative lower bound in multiplicity on %s", e)
		}
	}
	// Literal value vs builtin attribute type.
	if e.Kind == KindAttributeUsage && e.Value != nil && e.Type != nil && e.Type.Kind == KindBuiltin {
		if !literalMatches(e.Value, e.Type.Name) {
			r.warnf(e.Pos(), "value of %s does not match declared type %s", e, e.Type.Name)
		}
	}
	// Redefinition value type check against the redefined feature's type.
	if e.Value != nil && len(e.Redefines) == 1 {
		t := e.Redefines[0].Type
		if t != nil && t.Kind == KindBuiltin && !literalMatches(e.Value, t.Name) {
			r.warnf(e.Pos(), "redefinition value for %q does not match type %s", e.Redefines[0].Name, t.Name)
		}
	}
	// Bind endpoints should agree on builtin type when both are typed.
	if e.Kind == KindBind && e.BindLeft != nil && e.BindRight != nil {
		lt, rt := e.BindLeft.Type, e.BindRight.Type
		if lt != nil && rt != nil && lt.Kind == KindBuiltin && rt.Kind == KindBuiltin && !scalarCompatible(lt.Name, rt.Name) {
			r.warnf(e.BindLeft.Pos(), "bind connects %s to %s: incompatible scalar types %s and %s",
				e.BindLeft, e.BindRight, lt.Name, rt.Name)
		}
	}
	// Connect endpoints should be ports (or parts owning ports).
	if e.Kind == KindConnect && e.ConnectFrom != nil && e.ConnectTo != nil {
		okKind := func(x *Element) bool {
			switch x.Kind {
			case KindPortUsage, KindPartUsage, KindEndUsage, KindPortDef:
				return true
			}
			return false
		}
		if !okKind(e.ConnectFrom) || !okKind(e.ConnectTo) {
			r.warnf(e.Pos(), "connect endpoints %s and %s are not connectable features",
				e.ConnectFrom, e.ConnectTo)
		}
		// Port-typed endpoints must use the same port definition, with
		// exactly one side conjugated (a standard port talks to its
		// conjugated counterpart).
		from, to := e.ConnectFrom, e.ConnectTo
		if from.Kind == KindPortUsage && to.Kind == KindPortUsage &&
			from.Type != nil && to.Type != nil {
			if from.Type != to.Type {
				r.warnf(e.Pos(), "connect joins ports of different definitions: %s (%s) and %s (%s)",
					from, from.Type.Name, to, to.Type.Name)
			} else if from.Conjugated == to.Conjugated {
				r.warnf(e.Pos(), "connect joins two %s ports of %s; one end must be conjugated",
					map[bool]string{true: "conjugated", false: "non-conjugated"}[from.Conjugated],
					from.Type.Name)
			}
		}
	}
}

func literalMatches(v ast.Expr, typeName string) bool {
	switch v.(type) {
	case *ast.StringLit:
		return typeName == "String" || typeName == "Anything" || typeName == "ScalarValue"
	case *ast.IntLit:
		switch typeName {
		case "Integer", "Natural", "Positive", "Real", "Double", "Float", "Rational", "Number", "Anything", "ScalarValue":
			return true
		}
		return false
	case *ast.RealLit:
		switch typeName {
		case "Real", "Double", "Float", "Rational", "Number", "Anything", "ScalarValue":
			return true
		}
		return false
	case *ast.BoolLit:
		return typeName == "Boolean" || typeName == "Anything" || typeName == "ScalarValue"
	case *ast.FeatureRef:
		return true // cross-feature assignment, checked elsewhere
	}
	return true
}

func scalarCompatible(a, b string) bool {
	if a == b || a == "Anything" || b == "Anything" || a == "ScalarValue" || b == "ScalarValue" {
		return true
	}
	numeric := map[string]bool{"Integer": true, "Natural": true, "Positive": true,
		"Real": true, "Double": true, "Float": true, "Rational": true, "Number": true}
	return numeric[a] && numeric[b]
}

// ---------------------------------------------------------------------------
// Model queries

// FindByQualifiedName resolves an absolute "A::B::C" path from the root.
func (m *Model) FindByQualifiedName(qn string) *Element {
	cur := m.Root
	for _, part := range splitQualified(qn) {
		if cur == nil {
			return nil
		}
		next := cur.Member(part)
		if next == nil && cur.Kind.IsDef() {
			next = cur.InheritedMember(part)
		}
		cur = next
	}
	return cur
}

func splitQualified(qn string) []string {
	var parts []string
	start := 0
	for i := 0; i+1 < len(qn); i++ {
		if qn[i] == ':' && qn[i+1] == ':' {
			parts = append(parts, qn[start:i])
			start = i + 2
			i++
		}
	}
	parts = append(parts, qn[start:])
	return parts
}

// FindDef returns the first definition with the given simple name anywhere
// in the model, or nil.
func (m *Model) FindDef(name string) *Element {
	var found *Element
	m.Root.Walk(func(e *Element) bool {
		if found != nil {
			return false
		}
		if e.Kind.IsDef() && e.Name == name {
			found = e
			return false
		}
		return true
	})
	return found
}

// FindUsage returns the first usage with the given simple name, or nil.
func (m *Model) FindUsage(name string) *Element {
	for _, e := range m.ElementsNamed(name) {
		if e.Kind.IsUsage() {
			return e
		}
	}
	return nil
}

// UsagesTypedBy returns every usage whose resolved type is def or a
// specialization of def.
func (m *Model) UsagesTypedBy(def *Element) []*Element {
	var out []*Element
	m.Root.Walk(func(e *Element) bool {
		if e.Kind.IsUsage() && e.Type != nil {
			if e.Type == def {
				out = append(out, e)
				return true
			}
			for _, s := range e.Type.AllSupers() {
				if s == def {
					out = append(out, e)
					break
				}
			}
		}
		return true
	})
	return out
}
