// Package token defines the lexical tokens of the SysML v2 textual notation
// subset implemented by this repository, together with source positions.
//
// The token set covers the language constructs used by the smart-factory
// modeling methodology: packages, part/attribute/port/action/interface/
// connection definitions and usages, specialization (":>"), redefinition
// (":>>"), subsetting, port conjugation ("~"), binding connectors,
// multiplicities and literals.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds start at keywordBeg; the parser relies on
// IsKeyword to treat keywords as identifiers where the grammar permits
// (SysML v2 keywords are not reserved in feature-name position in several
// productions, e.g. an attribute may be called "value").
const (
	Illegal Kind = iota
	EOF
	Comment    // // ... or /* ... */ (non-doc)
	DocComment // doc /* ... */ body is carried by the parser, the lexer emits Doc keyword + Comment

	// Literals and names.
	Ident  // emcoDriver, EMCOVariables
	Int    // 5557
	Real   // 3.14
	String // 'text' or "text"

	// Punctuation and operators.
	LBrace       // {
	RBrace       // }
	LBrack       // [
	RBrack       // ]
	LParen       // (
	RParen       // )
	Semi         // ;
	Colon        // :
	ColonColon   // ::
	Comma        // ,
	Dot          // .
	DotDot       // ..
	Assign       // =
	Star         // *
	Tilde        // ~
	Minus        // - (only as the sign of a numeric literal)
	Specializes_ // :>
	Redefines_   // :>>
	Conjugates_  // ~ used in type position (lexed as Tilde; kept for doc)

	keywordBeg
	KwPackage
	KwImport
	KwPrivate
	KwPublic
	KwPart
	KwItem
	KwDef
	KwAttribute
	KwPort
	KwAction
	KwInterface
	KwConnection
	KwConnect
	KwTo
	KwBind
	KwRef
	KwAbstract
	KwIn
	KwOut
	KwInout
	KwSpecializes
	KwRedefines
	KwSubsets
	KwDoc
	KwPerform
	KwEnd
	KwFlow
	KwFrom
	KwTrue
	KwFalse
	KwNull
	keywordEnd
)

var kindNames = map[Kind]string{
	Illegal:       "ILLEGAL",
	EOF:           "EOF",
	Comment:       "COMMENT",
	DocComment:    "DOC_COMMENT",
	Ident:         "IDENT",
	Int:           "INT",
	Real:          "REAL",
	String:        "STRING",
	LBrace:        "{",
	RBrace:        "}",
	LBrack:        "[",
	RBrack:        "]",
	LParen:        "(",
	RParen:        ")",
	Semi:          ";",
	Colon:         ":",
	ColonColon:    "::",
	Comma:         ",",
	Dot:           ".",
	DotDot:        "..",
	Assign:        "=",
	Star:          "*",
	Tilde:         "~",
	Minus:         "-",
	Specializes_:  ":>",
	Redefines_:    ":>>",
	KwPackage:     "package",
	KwImport:      "import",
	KwPrivate:     "private",
	KwPublic:      "public",
	KwPart:        "part",
	KwItem:        "item",
	KwDef:         "def",
	KwAttribute:   "attribute",
	KwPort:        "port",
	KwAction:      "action",
	KwInterface:   "interface",
	KwConnection:  "connection",
	KwConnect:     "connect",
	KwTo:          "to",
	KwBind:        "bind",
	KwRef:         "ref",
	KwAbstract:    "abstract",
	KwIn:          "in",
	KwOut:         "out",
	KwInout:       "inout",
	KwSpecializes: "specializes",
	KwRedefines:   "redefines",
	KwSubsets:     "subsets",
	KwDoc:         "doc",
	KwPerform:     "perform",
	KwEnd:         "end",
	KwFlow:        "flow",
	KwFrom:        "from",
	KwTrue:        "true",
	KwFalse:       "false",
	KwNull:        "null",
}

// String returns a printable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps source spelling to keyword kind.
var keywords = func() map[string]Kind {
	m := make(map[string]Kind, keywordEnd-keywordBeg)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// Lookup returns the keyword kind for an identifier spelling, or Ident.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return Ident
}

// IsKeyword reports whether k is a keyword kind.
func IsKeyword(k Kind) bool { return k > keywordBeg && k < keywordEnd }

// Position is a source location (1-based line and column, 0-based offset).
type Position struct {
	File   string
	Offset int
	Line   int
	Column int
}

// IsValid reports whether the position carries a real location.
func (p Position) IsValid() bool { return p.Line > 0 }

// String renders "file:line:col" (or "line:col" when no file is set).
func (p Position) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Column)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Column)
}

// Token is a lexed token: kind, literal spelling and position.
type Token struct {
	Kind Kind
	Lit  string // literal text for Ident/Int/Real/String/Comment; "" otherwise
	Pos  Position
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Lit != "" && t.Kind != EOF {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}
