// Package cli holds the exit-code rule the commands under cmd/ share. A
// command's work returns only an error, and Code turns it into the exit
// code: 2 for a mistake the flags alone reveal (Usage), the code an Exit
// carries, 1 for anything else — a file, the network or the store.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// Rule states the contract Code implements, for a command's usage screen.
const Rule = `Exit codes: 0 success; 1 an error from a file, the network or the store;
2 a flag mistake, i.e. anything checkable from the flags alone (a malformed
or out-of-range value, an unknown name, flags that do not combine, a stray
argument).
`

type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Usage marks err, which the flags alone cause, as a usage error (exit 2).
func Usage(err error) error { return usageError{err} }

// Usagef is Usage(fmt.Errorf(format, args...)).
func Usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// Exit only sets the exit code: the command has already said on stderr
// why it stops (a differing store, a filter matching nothing, an
// interrupted coordinator, a flag the flag package rejected).
type Exit int

func (e Exit) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

// Parse parses args into fs, which reports its own errors, and rejects
// positional arguments: every input of these commands is a flag.
func Parse(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return Exit(0)
	case err != nil:
		return Exit(2)
	case fs.NArg() > 0:
		return Usagef("unexpected arguments %q (every input is a flag)", fs.Args())
	}
	return nil
}

// Code reports err on stderr as "name: err" and returns the exit code.
func Code(name string, stderr io.Writer, err error) int {
	var exit Exit
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return int(exit)
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
