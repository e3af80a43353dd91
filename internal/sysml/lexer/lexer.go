// Package lexer implements the scanner for the SysML v2 textual notation
// subset. It converts UTF-8 source text into a stream of tokens, handling
// line and block comments, single- and double-quoted string literals,
// integer and real literals, qualified-name punctuation ("::", "..") and
// the relationship shorthands ":>" (specializes) and ":>>" (redefines).
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

// Error is a lexical error bound to a source position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans SysML v2 source text.
type Lexer struct {
	src      string
	file     string
	offset   int // byte offset of current rune
	rdOffset int // byte offset after current rune
	ch       rune
	line     int
	col      int // column of current rune (1-based)

	// KeepComments controls whether Comment tokens are emitted or skipped.
	KeepComments bool

	errs []*Error
}

const eofRune = -1

// New returns a lexer over src; file is used in positions and errors.
func New(file, src string) *Lexer {
	l := &Lexer{src: src, file: file, line: 1, col: 0}
	l.next()
	return l
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Position, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// next advances to the next rune.
func (l *Lexer) next() {
	if l.rdOffset >= len(l.src) {
		l.offset = len(l.src)
		l.ch = eofRune
		return
	}
	if l.ch == '\n' {
		l.line++
		l.col = 0
	}
	r, w := rune(l.src[l.rdOffset]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(l.src[l.rdOffset:])
	}
	l.offset = l.rdOffset
	l.rdOffset += w
	l.ch = r
	l.col++
}

func (l *Lexer) peek() rune {
	if l.rdOffset >= len(l.src) {
		return eofRune
	}
	r := rune(l.src[l.rdOffset])
	if r >= utf8.RuneSelf {
		r, _ = utf8.DecodeRuneInString(l.src[l.rdOffset:])
	}
	return r
}

func (l *Lexer) pos() token.Position {
	return token.Position{File: l.file, Offset: l.offset, Line: l.line, Column: l.col}
}

func isIdentStart(r rune) bool {
	// ASCII fast path: model text is overwhelmingly ASCII, and the unicode
	// table lookups dominate the scan otherwise.
	if r < utf8.RuneSelf {
		return r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z')
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	for {
		l.skipSpace()
		pos := l.pos()
		switch {
		case l.ch == eofRune:
			return token.Token{Kind: token.EOF, Pos: pos}
		case isIdentStart(l.ch):
			lit := l.scanIdent()
			kind := token.Lookup(lit)
			return token.Token{Kind: kind, Lit: lit, Pos: pos}
		case isDigit(l.ch):
			kind, lit := l.scanNumber()
			return token.Token{Kind: kind, Lit: lit, Pos: pos}
		case l.ch == '\'' || l.ch == '"':
			lit, ok := l.scanString(l.ch)
			if !ok {
				l.errorf(pos, "unterminated string literal")
			}
			return token.Token{Kind: token.String, Lit: lit, Pos: pos}
		case l.ch == '/':
			if l.peek() == '/' {
				lit := l.scanLineComment()
				if l.KeepComments {
					return token.Token{Kind: token.Comment, Lit: lit, Pos: pos}
				}
				continue
			}
			if l.peek() == '*' {
				lit, ok := l.scanBlockComment()
				if !ok {
					l.errorf(pos, "unterminated block comment")
				}
				if l.KeepComments {
					return token.Token{Kind: token.Comment, Lit: lit, Pos: pos}
				}
				continue
			}
			l.errorf(pos, "unexpected character %q", l.ch)
			l.next()
			return token.Token{Kind: token.Illegal, Lit: "/", Pos: pos}
		default:
			return l.scanOperator(pos)
		}
	}
}

func (l *Lexer) skipSpace() {
	for l.ch == ' ' || l.ch == '\t' || l.ch == '\n' || l.ch == '\r' {
		l.next()
	}
}

func (l *Lexer) scanIdent() string {
	start := l.offset
	for isIdentPart(l.ch) {
		l.next()
	}
	return l.src[start:l.offset]
}

func (l *Lexer) scanNumber() (token.Kind, string) {
	start := l.offset
	kind := token.Int
	for isDigit(l.ch) {
		l.next()
	}
	// A real literal has a fractional part: "3.14". Do not consume ".." of
	// a multiplicity range "0..5".
	if l.ch == '.' && l.peek() != '.' && isDigit(l.peek()) {
		kind = token.Real
		l.next()
		for isDigit(l.ch) {
			l.next()
		}
	}
	if l.ch == 'e' || l.ch == 'E' {
		save := l.offset
		l.next()
		if l.ch == '+' || l.ch == '-' {
			l.next()
		}
		if isDigit(l.ch) {
			kind = token.Real
			for isDigit(l.ch) {
				l.next()
			}
		} else {
			// Not an exponent after all ("5e" would be invalid anyway, but
			// an identifier may follow, e.g. "5end" is "5" "end").
			l.rewind(save)
		}
	}
	return kind, l.src[start:l.offset]
}

// rewind restores scanning to a saved byte offset on the current line.
// Only used for one-rune lookahead backtracking within a line.
func (l *Lexer) rewind(offset int) {
	l.rdOffset = offset
	// Recompute column conservatively: count back from line start.
	lineStart := strings.LastIndexByte(l.src[:offset], '\n') + 1
	l.col = offset - lineStart
	l.ch = 0 // force next() to land on offset
	l.next()
}

// scanString scans a quoted literal. A literal without escapes is returned
// as a substring of the source; only one with a backslash (or a malformed
// UTF-8 byte, which decodes to U+FFFD) is rebuilt in a builder.
func (l *Lexer) scanString(quote rune) (string, bool) {
	l.next() // consume opening quote
	start := l.offset
	for {
		switch l.ch {
		case eofRune, '\n':
			return l.src[start:l.offset], false
		case quote:
			lit := l.src[start:l.offset]
			l.next()
			return lit, true
		case '\\':
			return l.scanEscapedString(quote, start)
		case utf8.RuneError:
			if l.rdOffset-l.offset == 1 {
				return l.scanEscapedString(quote, start)
			}
		}
		l.next()
	}
}

// scanEscapedString continues scanString at the current rune, with the
// literal's text since start copied into a builder that decodes escapes.
func (l *Lexer) scanEscapedString(quote rune, start int) (string, bool) {
	var b strings.Builder
	b.WriteString(l.src[start:l.offset])
	for {
		switch l.ch {
		case eofRune, '\n':
			return b.String(), false
		case '\\':
			l.next()
			switch l.ch {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '\'', '"':
				b.WriteRune(l.ch)
			default:
				b.WriteByte('\\')
				if l.ch != eofRune {
					b.WriteRune(l.ch)
				}
			}
			l.next()
		case quote:
			l.next()
			return b.String(), true
		default:
			b.WriteRune(l.ch)
			l.next()
		}
	}
}

func (l *Lexer) scanLineComment() string {
	start := l.offset
	for l.ch != '\n' && l.ch != eofRune {
		l.next()
	}
	return l.src[start:l.offset]
}

func (l *Lexer) scanBlockComment() (string, bool) {
	start := l.offset
	l.next() // '/'
	l.next() // '*'
	for {
		if l.ch == eofRune {
			return l.src[start:l.offset], false
		}
		if l.ch == '*' && l.peek() == '/' {
			l.next()
			l.next()
			return l.src[start:l.offset], true
		}
		l.next()
	}
}

func (l *Lexer) scanOperator(pos token.Position) token.Token {
	ch := l.ch
	l.next()
	mk := func(k token.Kind) token.Token { return token.Token{Kind: k, Pos: pos} }
	switch ch {
	case '{':
		return mk(token.LBrace)
	case '}':
		return mk(token.RBrace)
	case '[':
		return mk(token.LBrack)
	case ']':
		return mk(token.RBrack)
	case '(':
		return mk(token.LParen)
	case ')':
		return mk(token.RParen)
	case ';':
		return mk(token.Semi)
	case ',':
		return mk(token.Comma)
	case '=':
		return mk(token.Assign)
	case '*':
		return mk(token.Star)
	case '~':
		return mk(token.Tilde)
	case '-':
		return mk(token.Minus)
	case '.':
		if l.ch == '.' {
			l.next()
			return mk(token.DotDot)
		}
		return mk(token.Dot)
	case ':':
		switch l.ch {
		case ':':
			l.next()
			return mk(token.ColonColon)
		case '>':
			l.next()
			if l.ch == '>' {
				l.next()
				return mk(token.Redefines_)
			}
			return mk(token.Specializes_)
		}
		// ":»" (redefines shorthand in the paper's listings) — accept the
		// unicode guillemet as an alias for ":>>".
		if l.ch == '»' {
			l.next()
			return mk(token.Redefines_)
		}
		return mk(token.Colon)
	}
	l.errorf(pos, "unexpected character %q", ch)
	return token.Token{Kind: token.Illegal, Lit: string(ch), Pos: pos}
}

// ScanAll lexes the whole input, excluding the trailing EOF token.
func ScanAll(file, src string) ([]token.Token, []*Error) {
	l := New(file, src)
	// Pre-size on the observed token density of factory models (~5 source
	// bytes per token): repeated append-regrowth of the token slice used to
	// dominate whole-file scans (tokens are large values, so every regrowth
	// copies the entire backing array).
	toks := make([]token.Token, 0, len(src)/5+16)
	for {
		t := l.Next()
		if t.Kind == token.EOF {
			return toks, l.errs
		}
		toks = append(toks, t)
	}
}
