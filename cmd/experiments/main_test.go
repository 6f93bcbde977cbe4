package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites testdata/all.golden from the current output.
var update = flag.Bool("update", false, "rewrite the golden file")

// TestAllGolden pins every number the paper run prints: the stdout of
// `experiments -q -refs 50000 all` (every table, figure and extension
// study, 1777 cells) must match testdata/all.golden byte for byte.
// Regenerating the golden is a result change, not a refactoring.
func TestAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-q", "-refs", "50000", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./cmd/experiments -run TestAllGolden -update' to create)", err)
	}
	got := stdout.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output drifted from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestUnsavableStoreExits1: a store that cannot be saved is a store error,
// not a success.
func TestUnsavableStoreExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	store := filepath.Join(t.TempDir(), "nodir", "x.json")
	if code := run([]string{"-q", "-store", store, "table1"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "saving store") {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
}
