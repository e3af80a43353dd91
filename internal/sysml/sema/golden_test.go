package sema

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartfactory/sysml2conf/internal/sysml/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/broken.golden from the current front end")

// TestBrokenCorpusDiagnosticsGolden pins the syntax errors and the
// resolution diagnostics of every model under testdata/broken: message,
// severity, position and order. Resolution runs on the partial AST of a
// model that does not parse, as Lint and the editor tooling do.
func TestBrokenCorpusDiagnosticsGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "broken", "*.sysml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var b strings.Builder
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		b.WriteString("== " + name + "\n")
		f, perr := parser.ParseFile(name, string(src))
		var list parser.ErrorList
		if errors.As(perr, &list) {
			for _, e := range list {
				b.WriteString("syntax: " + e.Error() + "\n")
			}
		}
		m, _ := Resolve(f)
		for _, d := range m.Diags {
			b.WriteString(d.String() + "\n")
		}
	}
	golden := filepath.Join("testdata", "broken.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("diagnostics differ from %s (rerun with -update to accept):\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
