package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// TestBrokenModelsGolden lints each broken model under testdata and
// compares what sysmllint prints with its .golden file.
func TestBrokenModelsGolden(t *testing.T) {
	for _, name := range []string{"unresolved_type", "abstract_instance", "bad_multiplicity", "unterminated_string"} {
		t.Run(name, func(t *testing.T) {
			model := filepath.Join("testdata", name+".sysml")
			var stdout, stderr bytes.Buffer
			if code := run([]string{model}, &stdout, &stderr); code != 1 {
				t.Errorf("exit status %d, want 1; stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", golden, stdout.String(), want)
			}
		})
	}
}

func TestICELabIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-icelab"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0; output:\n%s%s", code, stdout.String(), stderr.String())
	}
	if got := stdout.String(); got != "icelab.sysml: clean\n" {
		t.Errorf("output = %q, want the clean line only", got)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-no-such-flag"},
		{filepath.Join("testdata", "no-such-model.sysml")},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q): stdout %q, stderr %q; want the reason on stderr only", args, stdout.String(), stderr.String())
		}
	}
}
