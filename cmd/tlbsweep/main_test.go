package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCase runs the command in-process and checks its exit code and a
// stderr substring.
func runCase(t *testing.T, args []string, code int, stderrHas string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	got := run(args, &out, &errb)
	if got != code || !strings.Contains(errb.String(), stderrHas) {
		t.Errorf("tlbsweep %s: exit %d, want %d with stderr containing %q; stderr:\n%s",
			strings.Join(args, " "), got, code, stderrHas, errb.String())
	}
	return out.String(), errb.String()
}

// TestExitCodes pins the exit-code rule of the usage screen: 2 for
// anything the flags alone reveal, 1 for a file or store error.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	cpuProf := filepath.Join(dir, "cpu.prof")
	cases := []struct {
		args      string
		code      int
		stderrHas string
	}{
		{"-workloads swim -rows abc -refs 1000", 2, `-rows: "abc" is not an integer`},
		{"-workloads swim -mechs BOGUS -refs 1000", 2, `unknown mechanism kind "BOGUS"`},
		{"-workloads swim -mechs DP -rows 3 -ways 2 -refs 1000", 2, "rows 3 not divisible by ways 2"},
		{"-workloads bogus -refs 1000", 2, `unknown workload or suite "bogus"`},
		{"-workloads swim -format bogus -refs 1000", 2, `unknown -format "bogus"`},
		{"-workloads swim -format svg -refs 1000", 2, "combine it with -figure"},
		{"-store " + missing + " -figure accuracy -format json", 2, `unknown -format "json"`},
		{"-workloads swim -pageshift 0 -refs 1000", 2, "-pageshift"},
		{"-workloads swim -memop-latency 10 -memop-ratio 0.5 -refs 1000", 2, "pick one axis"},
		{"-serve 127.0.0.1:0 -workloads swim -refs 1000 -tls-cert c.pem", 2, "-tls-cert and -tls-key must be given together"},
		{"-workloads swim -refs 0", 2, "-refs must be positive"},
		{"-workloads swim -quantum 5000 -refs 1000", 2, "the grid has no mix"},
		{"-mix swim+gcc -warmup 100 -refs 1000", 2, "do not support warmup"},
		{"-mix swim -refs 1000", 2, "needs at least two"},
		{"-workloads swim -refs 1000 stray", 2, "unexpected arguments"},
		{"-workloads swim -refs abc", 2, "invalid value"},
		{"-refs 1000", 2, "need a source axis"},
		{"-where bogus=1 -store " + missing, 2, `unknown filter field "bogus"`},
		{"-figure bogus -store " + missing, 2, `unknown -figure metric "bogus"`},
		{"-where mech=DP", 2, "-store is required"},
		{"-where mech=DP -gc -store " + missing, 2, "mutually exclusive"},
		{"-worker http://127.0.0.1:1 -refs 1000", 2, "-refs has no effect in worker mode"},
		{"-workloads bogus -cpuprofile " + cpuProf, 2, "unknown workload"},
		{"-trace " + filepath.Join(dir, "nosuchfile") + " -refs 1000", 1, "no such file"},
		{"-mix swim+" + filepath.Join(dir, "nosuchfile") + " -refs 1000", 1, "neither a workload name nor a readable trace"},
		{"-where mech=DP -store " + missing, 1, "no such file"},
		{"-h", 0, "Exit codes: 0 success"},
	}
	for _, c := range cases {
		runCase(t, strings.Fields(c.args), c.code, c.stderrHas)
	}
	if _, err := os.Stat(cpuProf); err == nil {
		t.Error("a flag mistake started the CPU profile")
	}
}

// TestSweepAndStoreModes runs a 1000-reference sweep into a store, then
// the store modes whose verdicts exit 1: a zero-match filter and -diff.
func TestSweepAndStoreModes(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	out, _ := runCase(t, strings.Fields("-workloads swim -mechs DP,RP -refs 1000 -q -format csv -store "+a), 0,
		"2 cells (0 cached, 2 run")
	if !strings.Contains(out, "swim") {
		t.Errorf("sweep stdout holds no swim row:\n%s", out)
	}
	runCase(t, strings.Fields("-workloads swim -mechs DP -refs 1000 -q -format none -store "+b), 0, "1 cells")
	runCase(t, strings.Fields("-store "+a+" -where mech=ASP"), 1, "no store cell satisfies mech=ASP")
	runCase(t, strings.Fields("-store "+a+" -diff "+b), 1, "")
	runCase(t, strings.Fields("-store "+a+" -diff "+a), 0, "")
	if out, _ := runCase(t, strings.Fields("-store "+a+" -figure accuracy -format csv"), 0, "2 of 2 store cells"); out == "" {
		t.Error("-figure printed nothing")
	}
}
