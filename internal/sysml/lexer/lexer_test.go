package lexer

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/smartfactory/sysml2conf/internal/sysml/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := ScanAll("test", src)
	if len(errs) > 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	out := make([]token.Kind, len(toks))
	for i, tk := range toks {
		out[i] = tk.Kind
	}
	return out
}

func TestOperators(t *testing.T) {
	got := kinds(t, "{ } [ ] ( ) ; : :: , . .. = * ~ :> :>>")
	want := []token.Kind{
		token.LBrace, token.RBrace, token.LBrack, token.RBrack,
		token.LParen, token.RParen, token.Semi, token.Colon,
		token.ColonColon, token.Comma, token.Dot, token.DotDot,
		token.Assign, token.Star, token.Tilde,
		token.Specializes_, token.Redefines_,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	toks, errs := ScanAll("test", "part def partial Defined bind bindx")
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	want := []token.Kind{token.KwPart, token.KwDef, token.Ident, token.Ident, token.KwBind, token.Ident}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d (%s) = %v, want %v", i, toks[i].Lit, toks[i].Kind, k)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]struct {
		kind token.Kind
		lit  string
	}{
		"42":     {token.Int, "42"},
		"0":      {token.Int, "0"},
		"3.14":   {token.Real, "3.14"},
		"1e5":    {token.Real, "1e5"},
		"2.5e-3": {token.Real, "2.5e-3"},
		"1E+2":   {token.Real, "1E+2"},
	}
	for src, want := range cases {
		toks, errs := ScanAll("t", src)
		if len(errs) > 0 {
			t.Errorf("%q: %v", src, errs)
			continue
		}
		if len(toks) != 1 || toks[0].Kind != want.kind || toks[0].Lit != want.lit {
			t.Errorf("%q -> %v, want %v(%q)", src, toks, want.kind, want.lit)
		}
	}
}

func TestMultiplicityRangeNotReal(t *testing.T) {
	// "0..5" must lex as Int DotDot Int, not a real literal.
	got := kinds(t, "[0..5]")
	want := []token.Kind{token.LBrack, token.Int, token.DotDot, token.Int, token.RBrack}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, errs := ScanAll("t", `'single' "double" 'with \'escape\'' 'a\nb'`)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	want := []string{"single", "double", "with 'escape'", "a\nb"}
	for i, w := range want {
		if toks[i].Kind != token.String || toks[i].Lit != w {
			t.Errorf("string %d = %v(%q), want %q", i, toks[i].Kind, toks[i].Lit, w)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	_, errs := ScanAll("t", "'never ends")
	if len(errs) == 0 {
		t.Error("want error for unterminated string")
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, errs := ScanAll("t", "/* never ends")
	if len(errs) == 0 {
		t.Error("want error for unterminated comment")
	}
}

func TestCommentsSkippedByDefault(t *testing.T) {
	got := kinds(t, "part // comment\n/* block */ def")
	want := []token.Kind{token.KwPart, token.KwDef}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v", got)
	}
}

func TestCommentsKept(t *testing.T) {
	l := New("t", "part // c\n")
	l.KeepComments = true
	var toks []token.Token
	for {
		tk := l.Next()
		if tk.Kind == token.EOF {
			break
		}
		toks = append(toks, tk)
	}
	if len(toks) != 2 || toks[1].Kind != token.Comment || !strings.HasPrefix(toks[1].Lit, "//") {
		t.Errorf("toks = %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := ScanAll("file.sysml", "a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Column != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Column != 3 {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
	if got := toks[1].Pos.String(); got != "file.sysml:2:3" {
		t.Errorf("Pos.String = %q", got)
	}
}

func TestIllegalCharacter(t *testing.T) {
	toks, errs := ScanAll("t", "a ¤ b")
	if len(errs) == 0 {
		t.Error("want error for illegal character")
	}
	// Lexing continues past the bad rune.
	idents := 0
	for _, tk := range toks {
		if tk.Kind == token.Ident {
			idents++
		}
	}
	if idents != 2 {
		t.Errorf("idents = %d, want 2", idents)
	}
}

func TestGuillemetRedefines(t *testing.T) {
	got := kinds(t, ":» x")
	if got[0] != token.Redefines_ {
		t.Errorf(":» lexed as %v, want :>>", got[0])
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks, errs := ScanAll("t", "müller_θ2")
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if len(toks) != 1 || toks[0].Kind != token.Ident || toks[0].Lit != "müller_θ2" {
		t.Errorf("toks = %v", toks)
	}
}

// TestLexerNeverPanicsProperty feeds arbitrary strings; the lexer must
// terminate without panicking and produce a finite token stream.
func TestLexerNeverPanicsProperty(t *testing.T) {
	f := func(src string) bool {
		if len(src) > 4096 {
			src = src[:4096]
		}
		toks, _ := ScanAll("fuzz", src)
		// Token count is bounded by input length plus one.
		return len(toks) <= len(src)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIdentifierRoundTripProperty(t *testing.T) {
	f := func(n uint8) bool {
		name := "id_" + strings.Repeat("x", int(n%40)+1)
		toks, errs := ScanAll("t", name)
		return len(errs) == 0 && len(toks) == 1 && toks[0].Lit == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStringWithoutEscapeIsSourceSubstring: a literal with no escape is
// a slice of the source, not a copy; escapes and malformed UTF-8 still
// decode as before.
func TestStringWithoutEscapeIsSourceSubstring(t *testing.T) {
	src := `'10.0.0.1' "path/file" 'it\'s' "a\tb" 'x` + "\xff" + `y' 'open`
	toks, errs := ScanAll("t", src)
	if len(toks) != 6 || len(errs) != 1 {
		t.Fatalf("toks = %v, errs = %v", toks, errs)
	}
	for i, at := range []int{1, 12} {
		lit := toks[i].Lit
		if unsafe.StringData(lit) != unsafe.StringData(src[at:]) {
			t.Errorf("literal %q is a copy, want a substring of the source", lit)
		}
	}
	want := []string{"10.0.0.1", "path/file", "it's", "a\tb", "x�y", "open"}
	for i, w := range want {
		if toks[i].Lit != w {
			t.Errorf("literal %d = %q, want %q", i, toks[i].Lit, w)
		}
	}
	if errs[0].Msg != "unterminated string literal" {
		t.Errorf("error = %v", errs[0])
	}
}

func TestMinusToken(t *testing.T) {
	got := kinds(t, "= -1.5 -2 1e-3")
	want := []token.Kind{token.Assign, token.Minus, token.Real, token.Minus, token.Int, token.Real}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kind %d = %v, want %v", i, got[i], want[i])
		}
	}
}
