package main

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/millingcell from the current generator")

// TestMillingCellOutputGolden runs the command as a user does,
// `sysml2cfg -model examples/models/millingcell.sysml -out <dir>`, and
// compares every file it writes with testdata/millingcell: the step-1 JSON
// and the manifests, byte for byte, and no file more or less.
func TestMillingCellOutputGolden(t *testing.T) {
	out := t.TempDir()
	args, commandLine := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, commandLine }()
	os.Args = []string{"sysml2cfg", "-model", filepath.Join("..", "..", "examples", "models", "millingcell.sysml"), "-out", out}
	flag.CommandLine = flag.NewFlagSet("sysml2cfg", flag.ExitOnError)
	main()

	golden := filepath.Join("testdata", "millingcell")
	got := readTree(t, out)
	if *update {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			path := filepath.Join(golden, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := readTree(t, golden)
	for name, data := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s is written but not in %s (rerun with -update to accept)", name, golden)
		} else if !bytes.Equal(data, w) {
			t.Errorf("%s differs from %s (rerun with -update to accept):\n--- got\n%s--- want\n%s", name, golden, data, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s is in %s but not written", name, golden)
		}
	}
}

// readTree maps the slash-separated path of every file under root to its
// contents.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
