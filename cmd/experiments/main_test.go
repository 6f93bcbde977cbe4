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

// TestExitCodes pins cli.Rule for this command: a flag or argument mistake
// exits 2 and -h exits 0, both before any simulation, and a store that
// cannot be opened exits 1. No row prints a result.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: experiments"},
		{[]string{"nosuch"}, 2, `experiments: unknown experiment "nosuch"`},
		{[]string{"fig7", "fig8"}, 2, "usage: experiments"},
		{[]string{"-figure", "bogus", "fig7"}, 2, `experiments: unknown -figure format "bogus"`},
		{[]string{"-figure", "csv", "table1"}, 2, `experiments: -figure applies to a single figure experiment`},
		{[]string{"-slots", "0", "fig7"}, 2, "experiments: slots must be positive"},
		{[]string{"-nosuch", "fig7"}, 2, "flag provided but not defined: -nosuch"},
		{[]string{"-h"}, 0, "usage: experiments"},
		{[]string{"-q", "-store", dir, "table1"}, 1, "experiments: sweep: reading store"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%q: exit %d, want %d with %q; stderr:\n%s", c.args, code, c.code, c.stderr, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%q printed to stdout:\n%s", c.args, stdout.String())
		}
	}
}
