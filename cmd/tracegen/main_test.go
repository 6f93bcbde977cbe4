package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code rule of the usage screen (2 for
// anything the flags alone reveal, 1 for a file error) and that a failed
// run leaves no output file.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "swim.trc")
	out := filepath.Join(dir, "out.trc")
	cases := []struct {
		args      string
		code      int
		stderrHas string
	}{
		{"-workload swim -refs 1000 -o " + trc, 0, ""},
		{"-workload swim -refs 1000 -o " + trc, 1, "already exists"},
		{"-workload bogus -refs 1000 -o " + out, 2, `unknown workload "bogus"`},
		{"-workload swim -refs 1000 -o " + out + " stray", 2, "unexpected arguments"},
		{"-workload swim -refs 0 -o " + out, 2, "-refs must be positive"},
		{"-workload swim -refs 1000 -format v3 -o " + out, 2, `unknown -format "v3"`},
		{"-workload swim -convert " + trc + " -o " + out, 2, "exactly one of -workload or -convert"},
		{"-convert " + trc, 2, "-convert needs an explicit -o"},
		{"-convert " + trc + " -o " + trc + " -force", 2, "is the -convert input"},
		{"-convert " + filepath.Join(dir, "nosuchfile") + " -o " + out, 1, "no such file"},
		{"-h", 0, "Exit codes: 0 success"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(strings.Fields(c.args), &stdout, &stderr); got != c.code || !strings.Contains(stderr.String(), c.stderrHas) {
			t.Errorf("tracegen %s: exit %d, want %d with stderr containing %q; stderr:\n%s",
				c.args, got, c.code, c.stderrHas, stderr.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("tracegen %s left %s behind", c.args, out)
		}
	}
}

// TestConvertIgnoresRefs: -refs 0 is a usage error only where -refs is
// read, and a conversion prints the digest of what it wrote.
func TestConvertIgnoresRefs(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "in.trc"), filepath.Join(dir, "out.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "swim", "-refs", "1000", "-o", src}, &stdout, &stderr); code != 0 {
		t.Fatalf("generate: exit %d; stderr:\n%s", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-convert", src, "-refs", "0", "-format", "text", "-o", dst}, &stdout, &stderr); code != 0 {
		t.Fatalf("convert: exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "converted 1000 references") || !strings.Contains(stdout.String(), "sha256 ") {
		t.Errorf("convert stdout:\n%s", stdout.String())
	}
}
