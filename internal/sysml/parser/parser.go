// Package parser implements a recursive-descent parser for the SysML v2
// textual notation subset used by the smart-factory modeling methodology.
//
// The parser is resilient: syntax errors are recorded and parsing resumes at
// the next ";" or "}" so that a single mistake does not hide the rest of the
// model's diagnostics.
package parser

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/smartfactory/sysml2conf/internal/sysml/ast"
	"github.com/smartfactory/sysml2conf/internal/sysml/lexer"
	"github.com/smartfactory/sysml2conf/internal/sysml/slab"
	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

// Error is a syntax error bound to a source position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is the ordered collection of syntax errors from one parse.
type ErrorList []*Error

// Error renders up to ten errors, one per line.
func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	var b strings.Builder
	for i, e := range l {
		if i == 10 {
			fmt.Fprintf(&b, "... and %d more errors", len(l)-10)
			break
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Parser holds the parsing state for one compilation unit.
type Parser struct {
	lex  *lexer.Lexer
	tok  token.Token
	peek token.Token
	errs ErrorList

	// maxErrors caps recorded errors to avoid cascading noise.
	maxErrors int

	slabs
	// members is the stack the bodies being parsed collect their members
	// on; each body copies its own run out once it is closed.
	members []ast.Member
	// parts is the scratch list a name is collected in before its parts
	// are copied into the names slab.
	parts []string
}

// slabs hold the nodes and slices of one ParseFile call, so that a model
// costs a few hundred allocations, not one per node and name. They belong
// to that call's AST alone: a node keeps its chunk alive, and nothing is
// shared between calls. Every slice handed out of a slab is capped at its
// length (slab.Append), so a consumer's append copies instead of
// overwriting the neighbouring slice in the chunk.
type slabs struct {
	usages   []ast.Usage
	defs     []ast.Definition
	paths    []ast.FeaturePath
	qnames   []ast.QualifiedName
	typeRefs []ast.TypeRef
	strLits  []ast.StringLit
	binds    []ast.Bind
	connects []ast.Connect

	names     []string
	pathLists []*ast.FeaturePath
	nameLists []*ast.QualifiedName
	bodies    []ast.Member
}

const (
	nodeChunk  = 256  // nodes per full chunk of a node slab
	sliceChunk = 1024 // elements per full chunk of a names or list slab
)

// ParseFile parses src into a File. The returned error, if non-nil, is an
// ErrorList; a partial AST is still returned for tooling that wants it.
func ParseFile(filename, src string) (*ast.File, error) {
	p := newParser(filename, src)
	f := &ast.File{Name: filename, Position: p.tok.Pos}
	for p.tok.Kind != token.EOF {
		before := p.tok
		m := p.parseMember()
		if m != nil {
			p.members = append(p.members, m)
		}
		// Progress guard: a stray "}" (or any member that consumed
		// nothing) must not stall the top-level loop.
		if m == nil && p.tok == before {
			p.errorf(p.tok.Pos, "unexpected %s at top level", p.tok)
			p.advance()
		}
	}
	f.Members = p.body(0)
	if lexErrs := p.lex.Errors(); len(lexErrs) > 0 {
		// A lexical error usually causes the syntax errors after it:
		// report all in source order, the lexer's first at equal offsets.
		errs := make(ErrorList, 0, len(lexErrs)+len(p.errs))
		for _, le := range lexErrs {
			errs = append(errs, &Error{Pos: le.Pos, Msg: le.Msg})
		}
		p.errs = append(errs, p.errs...)
		sort.SliceStable(p.errs, func(i, j int) bool { return p.errs[i].Pos.Offset < p.errs[j].Pos.Offset })
	}
	if len(p.errs) > 0 {
		return f, p.errs
	}
	return f, nil
}

// MustParse parses src and panics on error; intended for tests and for
// embedding known-good models.
func MustParse(filename, src string) *ast.File {
	f, err := ParseFile(filename, src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse(%s): %v", filename, err))
	}
	return f
}

func newParser(filename, src string) *Parser {
	l := lexer.New(filename, src)
	l.KeepComments = true
	p := &Parser{lex: l, maxErrors: 100}
	// Prime tok and peek.
	p.peek = p.scan()
	p.advance()
	return p
}

// scan returns the next non-comment token, remembering nothing; comments are
// consumed here except immediately after a "doc" keyword (handled by
// parseDoc via rawNext).
func (p *Parser) scan() token.Token {
	for {
		t := p.lex.Next()
		if t.Kind != token.Comment {
			return t
		}
	}
}

func (p *Parser) advance() {
	p.tok = p.peek
	p.peek = p.scan()
}

func (p *Parser) errorf(pos token.Position, format string, args ...any) {
	if len(p.errs) >= p.maxErrors {
		return
	}
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// expect consumes a token of kind k or records an error.
func (p *Parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		// Do not consume: let recovery handle it, except for closers that
		// would deadlock.
		if t.Kind == token.EOF {
			return t
		}
	}
	p.advance()
	return t
}

// accept consumes the token if it matches and reports whether it did.
func (p *Parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

// sync skips tokens until after the next ";" or until a "}" / EOF.
func (p *Parser) sync() {
	depth := 0
	for {
		switch p.tok.Kind {
		case token.EOF:
			return
		case token.Semi:
			if depth == 0 {
				p.advance()
				return
			}
			p.advance()
		case token.LBrace:
			depth++
			p.advance()
		case token.RBrace:
			if depth == 0 {
				return
			}
			depth--
			p.advance()
			if depth == 0 {
				return
			}
		default:
			p.advance()
		}
	}
}

// identLike consumes an identifier, also accepting non-structural keywords
// (e.g. "value", "to", "end", "in") as names where the grammar is
// unambiguous.
func (p *Parser) identLike() (string, bool) {
	switch {
	case p.tok.Kind == token.Ident:
		name := p.tok.Lit
		p.advance()
		return name, true
	case token.IsKeyword(p.tok.Kind):
		// Permit keywords as plain names (SysML v2 reserves few words in
		// feature position); structural parsing decided before calling.
		name := p.tok.Lit
		p.advance()
		return name, true
	default:
		return "", false
	}
}

// ---------------------------------------------------------------------------
// Names and types

func (p *Parser) parseQualifiedName() *ast.QualifiedName {
	q := slab.New(&p.qnames, nodeChunk)
	q.Position = p.tok.Pos
	q.Parts = p.parseNameParts(true)
	return q
}

func (p *Parser) parseFeaturePath() *ast.FeaturePath {
	f := slab.New(&p.paths, nodeChunk)
	f.Position = p.tok.Pos
	f.Parts = p.parseNameParts(false)
	return f
}

// parseNameParts parses the segments of a qualified name ("A::B", which
// stops before an import's "::*") or of a feature path ("a.b", which also
// steps through "::"), and returns them as one slice of the names slab.
func (p *Parser) parseNameParts(qualified bool) []string {
	parts := p.parts[:0]
	name, ok := p.identLike()
	if !ok {
		if qualified {
			p.errorf(p.tok.Pos, "expected name, found %s", p.tok)
		} else {
			p.errorf(p.tok.Pos, "expected feature name, found %s", p.tok)
		}
		return nil
	}
	parts = append(parts, name)
	for p.tok.Kind == token.ColonColon || (!qualified && p.tok.Kind == token.Dot) {
		if qualified && p.peek.Kind == token.Star {
			break
		}
		p.advance()
		name, ok := p.identLike()
		if !ok {
			if qualified {
				p.errorf(p.tok.Pos, "expected name after '::', found %s", p.tok)
			} else {
				p.errorf(p.tok.Pos, "expected name in feature path, found %s", p.tok)
			}
			break
		}
		parts = append(parts, name)
	}
	p.parts = parts
	return slab.Append(&p.names, sliceChunk, nil, parts...)
}

func (p *Parser) parseTypeRef() *ast.TypeRef {
	t := slab.New(&p.typeRefs, nodeChunk)
	t.Conjugated = p.accept(token.Tilde)
	t.Name = p.parseQualifiedName()
	return t
}

func (p *Parser) parseMultiplicity() *ast.Multiplicity {
	pos := p.tok.Pos
	p.expect(token.LBrack)
	m := &ast.Multiplicity{Position: pos}
	switch p.tok.Kind {
	case token.Star:
		m.Lower, m.Upper = 0, ast.Many
		p.advance()
	case token.Int:
		lo, _ := strconv.Atoi(p.tok.Lit)
		p.advance()
		if p.accept(token.DotDot) {
			switch p.tok.Kind {
			case token.Star:
				m.Lower, m.Upper = lo, ast.Many
				p.advance()
			case token.Int:
				hi, _ := strconv.Atoi(p.tok.Lit)
				m.Lower, m.Upper = lo, hi
				p.advance()
			default:
				p.errorf(p.tok.Pos, "expected upper bound, found %s", p.tok)
			}
		} else {
			m.Lower, m.Upper = lo, lo
		}
	default:
		p.errorf(p.tok.Pos, "expected multiplicity, found %s", p.tok)
	}
	p.expect(token.RBrack)
	return m
}

// ---------------------------------------------------------------------------
// Expressions

func (p *Parser) parseExpr() ast.Expr {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.String:
		lit := slab.New(&p.strLits, nodeChunk)
		lit.Value, lit.Position = p.tok.Lit, pos
		p.advance()
		return lit
	case token.Int, token.Real:
		return p.parseNumber(pos, "")
	case token.Minus:
		// The sign belongs to the number after it: "-1.5" is one literal,
		// positioned at the "-". Anything else after a "-" is one error.
		p.advance()
		if p.tok.Kind == token.Int || p.tok.Kind == token.Real {
			return p.parseNumber(pos, "-")
		}
		p.errorf(p.tok.Pos, "expected number after '-', found %s", p.tok)
		switch p.tok.Kind {
		case token.String, token.Ident, token.KwTrue, token.KwFalse:
			p.parseExpr()
		}
		return &ast.StringLit{Position: pos}
	case token.KwTrue:
		p.advance()
		return &ast.BoolLit{Value: true, Position: pos}
	case token.KwFalse:
		p.advance()
		return &ast.BoolLit{Value: false, Position: pos}
	case token.Ident:
		return &ast.FeatureRef{Path: p.parseFeaturePath()}
	default:
		p.errorf(pos, "expected expression, found %s", p.tok)
		p.advance()
		return &ast.StringLit{Position: pos}
	}
}

// parseNumber parses the Int or Real token at p.tok as a literal at pos;
// sign is "" or "-".
func (p *Parser) parseNumber(pos token.Position, sign string) ast.Expr {
	text := p.tok.Lit
	if sign != "" {
		text = sign + text
	}
	kind := p.tok.Kind
	p.advance()
	if kind == token.Int {
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			p.errorf(pos, "invalid integer literal %q", text)
		}
		return &ast.IntLit{Value: n, Position: pos}
	}
	x, err := strconv.ParseFloat(text, 64)
	if err != nil {
		p.errorf(pos, "invalid real literal %q", text)
	}
	return &ast.RealLit{Value: x, Position: pos}
}

// ---------------------------------------------------------------------------
// Members

// parseMember parses one package/body member, or nil on recovered error.
func (p *Parser) parseMember() ast.Member {
	switch p.tok.Kind {
	case token.KwPackage:
		return p.parsePackage()
	case token.KwImport, token.KwPrivate, token.KwPublic:
		return p.parseImport()
	case token.KwDoc:
		return p.parseDoc()
	case token.KwBind:
		return p.parseBind()
	case token.KwConnect:
		return p.parseConnect("", nil)
	case token.KwPerform:
		return p.parsePerform()
	case token.KwAbstract, token.KwRef, token.KwIn, token.KwOut, token.KwInout,
		token.KwPart, token.KwItem, token.KwAttribute, token.KwPort, token.KwAction,
		token.KwInterface, token.KwConnection, token.KwEnd:
		return p.parseDefOrUsage()
	case token.Redefines_:
		return p.parseAnonymousRedefinition()
	case token.Semi:
		p.advance()
		return nil
	case token.RBrace:
		// Caller closes the block.
		return nil
	default:
		p.errorf(p.tok.Pos, "unexpected %s at member position", p.tok)
		p.sync()
		return nil
	}
}

func (p *Parser) parsePackage() ast.Member {
	pos := p.tok.Pos
	p.expect(token.KwPackage)
	name, ok := p.identLike()
	if !ok {
		p.errorf(p.tok.Pos, "expected package name, found %s", p.tok)
		p.sync()
		return nil
	}
	pkg := &ast.Package{Name: name, Position: pos}
	if p.accept(token.Semi) {
		return pkg
	}
	p.expect(token.LBrace)
	pkg.Members = p.parseMembersUntilRBrace()
	p.expect(token.RBrace)
	return pkg
}

func (p *Parser) parseMembersUntilRBrace() []ast.Member {
	base := len(p.members)
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		before := p.tok
		m := p.parseMember()
		if m != nil {
			p.members = append(p.members, m)
		}
		// Guard against non-progress.
		if p.tok == before && m == nil {
			p.advance()
		}
	}
	return p.body(base)
}

// body pops the members collected on the stack since base and returns
// them as one slice of the bodies slab.
func (p *Parser) body(base int) []ast.Member {
	out := slab.Append(&p.bodies, sliceChunk, nil, p.members[base:]...)
	p.members = p.members[:base]
	return out
}

func (p *Parser) parseImport() ast.Member {
	pos := p.tok.Pos
	imp := &ast.Import{Position: pos}
	if p.accept(token.KwPrivate) {
		imp.Private = true
	} else {
		p.accept(token.KwPublic)
	}
	p.expect(token.KwImport)
	imp.Path = p.parseQualifiedName()
	if p.accept(token.ColonColon) {
		p.expect(token.Star)
		imp.Wildcard = true
		if p.accept(token.Star) { // "::**"
			imp.Recursive = true
		}
	}
	p.expect(token.Semi)
	return imp
}

// parseDoc handles "doc /* text */". The doc body arrives as a Comment
// token, which scan() normally filters, so peek may already have skipped
// it; instead the lexer keeps comments and scan() drops them. To keep the
// common path simple, doc accepts either an immediately following block
// comment captured in peek-history, or a string literal, or nothing.
func (p *Parser) parseDoc() ast.Member {
	pos := p.tok.Pos
	// The comment following "doc" was swallowed by scan(); re-lexing is not
	// possible, so the lexer-level contract is: parser keeps comments OFF in
	// scan but the doc body is recovered here from raw text when present.
	// Simplest robust approach: accept an optional String or Comment-shaped
	// body; models in this repo write doc bodies as strings.
	p.advance() // consume 'doc'
	d := &ast.Doc{Position: pos}
	if p.tok.Kind == token.String {
		d.Text = p.tok.Lit
		p.advance()
	}
	p.accept(token.Semi)
	return d
}

func (p *Parser) parseBind() ast.Member {
	pos := p.tok.Pos
	p.expect(token.KwBind)
	b := slab.New(&p.binds, nodeChunk)
	b.Position = pos
	b.Left = p.parseFeaturePath()
	p.expect(token.Assign)
	b.Right = p.parseFeaturePath()
	p.expect(token.Semi)
	return b
}

func (p *Parser) parseConnect(name string, typ *ast.TypeRef) ast.Member {
	pos := p.tok.Pos
	p.expect(token.KwConnect)
	c := slab.New(&p.connects, nodeChunk)
	c.Name, c.Type, c.Position = name, typ, pos
	c.From = p.parseFeaturePath()
	p.expect(token.KwTo)
	c.To = p.parseFeaturePath()
	p.expect(token.Semi)
	return c
}

func (p *Parser) parsePerform() ast.Member {
	pos := p.tok.Pos
	p.expect(token.KwPerform)
	pf := &ast.Perform{Position: pos}
	pf.Target = p.parseFeaturePath()
	if p.accept(token.LBrace) {
		pf.Members = p.parseMembersUntilRBrace()
		p.expect(token.RBrace)
	} else {
		p.expect(token.Semi)
	}
	return pf
}

// parseAnonymousRedefinition parses ":>> path [= expr] (';'|body)" appearing
// directly as a member (value redefinition inside an instantiated part).
func (p *Parser) parseAnonymousRedefinition() ast.Member {
	pos := p.tok.Pos
	p.expect(token.Redefines_)
	u := slab.New(&p.usages, nodeChunk)
	u.Kind, u.Position = ast.UseAttribute, pos
	u.Redefines = slab.Append(&p.pathLists, sliceChunk, nil, p.parseFeaturePath())
	if p.accept(token.Assign) {
		u.Value = p.parseExpr()
	}
	if p.accept(token.LBrace) {
		u.Members = p.parseMembersUntilRBrace()
		p.expect(token.RBrace)
	} else {
		p.expect(token.Semi)
	}
	return u
}

// parseDefOrUsage parses definitions ("<kind> def Name ...") and usages
// ("<kind> name : Type ..."), with optional leading direction / ref /
// abstract modifiers in any sensible order.
func (p *Parser) parseDefOrUsage() ast.Member {
	pos := p.tok.Pos
	dir := ast.DirNone
	isRef := false
	isAbstract := false

	// Leading modifiers.
loop:
	for {
		switch p.tok.Kind {
		case token.KwIn:
			dir = ast.DirIn
			p.advance()
		case token.KwOut:
			dir = ast.DirOut
			p.advance()
		case token.KwInout:
			dir = ast.DirInOut
			p.advance()
		case token.KwRef:
			isRef = true
			p.advance()
		case token.KwAbstract:
			isAbstract = true
			p.advance()
		default:
			break loop
		}
	}

	var defKind ast.DefKind
	var useKind ast.UsageKind
	hasKindKw := true
	switch p.tok.Kind {
	case token.KwPart:
		defKind, useKind = ast.DefPart, ast.UsePart
	case token.KwItem:
		defKind, useKind = ast.DefItem, ast.UseItem
	case token.KwAttribute:
		defKind, useKind = ast.DefAttribute, ast.UseAttribute
	case token.KwPort:
		defKind, useKind = ast.DefPort, ast.UsePort
	case token.KwAction:
		defKind, useKind = ast.DefAction, ast.UseAction
	case token.KwInterface:
		defKind, useKind = ast.DefInterface, ast.UseInterface
	case token.KwConnection:
		defKind, useKind = ast.DefConnection, ast.UseConnection
	case token.KwEnd:
		useKind = ast.UseEnd
		hasKindKw = true
	default:
		// Directional parameter without kind keyword: "out ready : Boolean;"
		if dir == ast.DirNone {
			p.errorf(p.tok.Pos, "expected definition or usage keyword, found %s", p.tok)
			p.sync()
			return nil
		}
		hasKindKw = false
		useKind = ast.UseAttribute
	}
	if hasKindKw {
		p.advance()
	}

	if p.tok.Kind == token.KwDef && useKind != ast.UseEnd {
		p.advance()
		return p.parseDefinitionTail(pos, defKind, isAbstract)
	}

	// interface usage with inline connect: "interface [name [: T]] connect a to b;"
	if useKind == ast.UseInterface {
		return p.parseInterfaceUsage(pos)
	}

	u := p.parseUsageTail(pos, useKind, dir, isRef, isAbstract)
	if !hasKindKw {
		if uu, ok := u.(*ast.Usage); ok {
			uu.ImplicitKind = true
		}
	}
	return u
}

func (p *Parser) parseDefinitionTail(pos token.Position, kind ast.DefKind, abstract bool) ast.Member {
	name, ok := p.identLike()
	if !ok {
		p.errorf(p.tok.Pos, "expected definition name, found %s", p.tok)
		p.sync()
		return nil
	}
	d := slab.New(&p.defs, nodeChunk)
	d.Kind, d.Abstract, d.Name, d.Position = kind, abstract, name, pos
	for p.accept(token.Specializes_) || p.accept(token.KwSpecializes) {
		for {
			q := p.parseQualifiedName()
			d.Specializes = slab.Append(&p.nameLists, sliceChunk, d.Specializes, q)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	switch {
	case p.accept(token.Semi):
	case p.accept(token.LBrace):
		d.Members = p.parseMembersUntilRBrace()
		p.expect(token.RBrace)
	default:
		p.errorf(p.tok.Pos, "expected ';' or '{' after definition header, found %s", p.tok)
		p.sync()
	}
	return d
}

func (p *Parser) parseInterfaceUsage(pos token.Position) ast.Member {
	name := ""
	var typ *ast.TypeRef
	if p.tok.Kind == token.Ident {
		name, _ = p.identLike()
	}
	if p.accept(token.Colon) {
		typ = p.parseTypeRef()
	}
	if p.tok.Kind == token.KwConnect {
		return p.parseConnect(name, typ)
	}
	u := slab.New(&p.usages, nodeChunk)
	u.Kind, u.Name, u.Type, u.Position = ast.UseInterface, name, typ, pos
	if p.accept(token.LBrace) {
		u.Members = p.parseMembersUntilRBrace()
		p.expect(token.RBrace)
	} else {
		p.expect(token.Semi)
	}
	return u
}

func (p *Parser) parseUsageTail(pos token.Position, kind ast.UsageKind, dir ast.Direction, isRef, isAbstract bool) ast.Member {
	u := slab.New(&p.usages, nodeChunk)
	u.Kind, u.Direction, u.Ref, u.Abstract, u.Position = kind, dir, isRef, isAbstract, pos

	// Name is optional for pure redefinitions (":>> x = v") but usual.
	if p.tok.Kind == token.Ident || isNameableKeyword(p.tok.Kind) {
		u.Name, _ = p.identLike()
	}

	for {
		switch {
		case p.tok.Kind == token.Colon:
			p.advance()
			u.Type = p.parseTypeRef()
		case p.tok.Kind == token.LBrack:
			u.Multiplicity = p.parseMultiplicity()
		case p.tok.Kind == token.Specializes_ || p.tok.Kind == token.KwSpecializes:
			p.advance()
			q := p.parseQualifiedName()
			u.Specializes = slab.Append(&p.nameLists, sliceChunk, u.Specializes, q)
		case p.tok.Kind == token.Redefines_ || p.tok.Kind == token.KwRedefines:
			p.advance()
			f := p.parseFeaturePath()
			u.Redefines = slab.Append(&p.pathLists, sliceChunk, u.Redefines, f)
		case p.tok.Kind == token.KwSubsets:
			p.advance()
			f := p.parseFeaturePath()
			u.Subsets = slab.Append(&p.pathLists, sliceChunk, u.Subsets, f)
		case p.tok.Kind == token.Assign:
			p.advance()
			u.Value = p.parseExpr()
		default:
			goto done
		}
	}
done:
	switch {
	case p.accept(token.Semi):
	case p.accept(token.LBrace):
		u.Members = p.parseMembersUntilRBrace()
		p.expect(token.RBrace)
	default:
		p.errorf(p.tok.Pos, "expected ';' or '{' after usage, found %s", p.tok)
		p.sync()
	}
	return u
}

// isNameableKeyword reports whether a keyword may serve as a feature name.
func isNameableKeyword(k token.Kind) bool {
	switch k {
	case token.KwEnd, token.KwTo, token.KwFlow, token.KwFrom, token.KwDoc:
		return true
	}
	return false
}
