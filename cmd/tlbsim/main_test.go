package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code rule of the usage screen: 2 for
// anything the flags alone reveal, 1 for a file error, 0 for a run.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nosuchfile")
	cases := []struct {
		args      string
		code      int
		stderrHas string
	}{
		{"-workload swim -trace x", 2, "mutually exclusive"},
		{"-workload bogus", 2, `unknown workload "bogus"`},
		{"-workload swim -refs 20000 stray -mech RP", 2, `unexpected arguments ["stray" "-mech" "RP"]`},
		{"-workload swim -refs 0", 2, "-refs must be positive"},
		{"-workload swim -refs 1000 -tlbways 3", 2, "not divisible by Ways 3"},
		{"-workload swim -refs 1000 -mech DP -rows 3 -ways 2", 2, "rows 3 not divisible by ways 2"},
		{"-workload swim -refs 1000 -mech MP -slots 0", 2, "slots"},
		{"-workload swim -refs 1000 -mech BOGUS", 2, `unknown mechanism kind "BOGUS"`},
		{"-workload swim -refs abc", 2, "invalid value"},
		{"", 2, "need -workload or -trace"},
		{"-trace " + missing, 1, "no such file"},
		{"-h", 0, "Exit codes: 0 success"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(strings.Fields(c.args), &stdout, &stderr); got != c.code || !strings.Contains(stderr.String(), c.stderrHas) {
			t.Errorf("tlbsim %s: exit %d, want %d with stderr containing %q; stderr:\n%s",
				c.args, got, c.code, c.stderrHas, stderr.String())
		}
	}
}

func TestRun(t *testing.T) {
	for _, args := range []string{"-workload swim -refs 1000", "-workload swim -refs 1000 -mech RP -timing"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "references") {
			t.Errorf("tlbsim %s: exit %d; stdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
	}
}
