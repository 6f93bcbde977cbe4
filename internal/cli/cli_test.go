package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"testing"
)

func TestCode(t *testing.T) {
	cases := []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{errors.New("open x: no such file"), 1, "cmd: open x: no such file\n"},
		{Usagef("-refs must be positive"), 2, "cmd: -refs must be positive\n"},
		{fmt.Errorf("grid: %w", Usage(errors.New("bad"))), 2, "cmd: grid: bad\n"},
		{Exit(3), 3, ""},
		{Exit(0), 0, ""},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		if got := Code("cmd", &stderr, c.err); got != c.code || stderr.String() != c.stderr {
			t.Errorf("Code(%v) = %d, stderr %q; want %d, %q", c.err, got, stderr.String(), c.code, c.stderr)
		}
	}
}

func TestParse(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 0},
		{[]string{"-n", "3"}, 0},
		{[]string{"-h"}, 0},
		{[]string{"-n", "x"}, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-n", "3", "stray"}, 2},
	} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("n", 0, "")
		if got := Code("cmd", io.Discard, Parse(fs, c.args)); got != c.code {
			t.Errorf("Parse(%q): exit %d, want %d", c.args, got, c.code)
		}
	}
}
