// Command tracegen writes a workload model's reference stream to a trace
// file, or converts an existing trace between encodings. Three encodings
// are supported: the block-structured delta-encoded v2 binary (the
// default — typically 2-6 bytes per record, batched decode), the
// fixed-width v1 binary (16 bytes per record) and the human-readable text
// format. It prints the SHA-256 digest of the written file — the identity
// trace-backed sweep keys embed — and refuses to overwrite an existing
// file unless -force is given, so a digest a grid already references
// cannot be clobbered by accident. It never writes over the -convert
// input, and a run that fails removes the file it created, so no empty or
// partial trace is left for a sweep to pick up.
//
// Conversion is lossless and deterministic: the record stream round-trips
// exactly, and converting the same input twice yields byte-identical
// output (a stable digest).
//
// Examples:
//
//	tracegen -workload swim -refs 5000000 -o swim.trc
//	tracegen -workload gsm-enc -refs 100000 -format text -o gsm.txt
//	tracegen -workload mcf -refs 1000000 -format v1 -o mcf.trc -force
//	tracegen -convert mcf-v1.trc -o mcf.trc            # to v2 (default)
//	tracegen -convert mcf.trc -format text -o mcf.txt  # back out to text
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"tlbprefetch"
	"tlbprefetch/internal/cli"
)

// formats are the output encodings newWriter builds.
var formats = []string{"text", "v1", "v2"}

// finisher is the writer-side completion hook: text traces only need a
// buffer flush, binary traces patch the record count into the header.
type finisher func(f *os.File) error

// newWriter builds the output-format writer over f.
func newWriter(format string, f *os.File) (tlbprefetch.TraceWriter, finisher, error) {
	switch format {
	case "text":
		tw := tlbprefetch.NewTextTraceWriter(f)
		return tw, func(*os.File) error { return tw.Flush() }, nil
	case "v1":
		tw, err := tlbprefetch.NewBinaryTraceWriter(f)
		if err != nil {
			return nil, nil, err
		}
		return tw, func(f *os.File) error { return tw.FinishCount(f) }, nil
	case "v2":
		tw, err := tlbprefetch.NewBlockTraceWriter(f)
		if err != nil {
			return nil, nil, err
		}
		return tw, func(f *os.File) error { return tw.FinishCount(f) }, nil
	}
	return nil, nil, fmt.Errorf("unknown -format %q %v", format, formats)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: the summary goes to stdout, diagnostics to
// stderr, and the result is the process exit code (cli.Rule).
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Code("tracegen", stderr, generate(args, stdout, stderr))
}

// generate checks every flag, then writes the trace and prints its digest.
func generate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload model to emit (see tlbsim -list)")
		convert      = fs.String("convert", "", "input trace to re-encode instead of generating (format auto-detected)")
		refs         = fs.Uint64("refs", 1_000_000, "references to generate")
		out          = fs.String("o", "", "output file (default: <workload>.trc or .txt)")
		format       = fs.String("format", "v2", "output encoding: v2 (block binary), v1 (fixed binary), text")
		force        = fs.Bool("force", false, "overwrite the output file if it already exists")
	)
	fs.Usage = func() {
		fmt.Fprint(stderr, "usage: tracegen [flags]\n\n", cli.Rule, "\n")
		fs.PrintDefaults()
	}
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if (*workloadName == "") == (*convert == "") {
		return cli.Usagef("need exactly one of -workload or -convert")
	}
	if !slices.Contains(formats, *format) {
		return cli.Usagef("unknown -format %q %v", *format, formats)
	}
	w, ok := tlbprefetch.WorkloadByName(*workloadName)
	path := *out
	switch {
	case *convert != "" && path == "":
		return cli.Usagef("-convert needs an explicit -o (refusing to guess a name next to the input)")
	case *convert != "" && sameFile(*convert, path):
		return cli.Usagef("-o %s is the -convert input; write the conversion to another file", path)
	case *convert != "": // a conversion reads neither -workload nor -refs
	case !ok:
		return cli.Usagef("unknown workload %q", *workloadName)
	case *refs == 0:
		// A header-only trace would pass for a recording of nothing.
		return cli.Usagef("-refs must be positive")
	case path == "" && *format == "text":
		path = *workloadName + ".txt"
	case path == "":
		path = *workloadName + ".trc"
	}

	var (
		src  tlbprefetch.TraceBatchReader
		srcC io.Closer
	)
	if *convert != "" {
		var err error
		if src, srcC, err = tlbprefetch.OpenTraceFile(*convert); err != nil {
			return err
		}
		defer srcC.Close()
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !*force {
		// O_EXCL makes the existence check race-free: the create fails
		// rather than truncating a trace some grid's keys already name.
		flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if os.IsExist(err) {
		return fmt.Errorf("%s already exists (its digest may be referenced by sweep grids); use -force to overwrite", path)
	} else if err != nil {
		return err
	}

	tw, finish, err := newWriter(*format, f)
	var n uint64
	switch {
	case err != nil:
	case *convert != "":
		n, err = tlbprefetch.CopyTrace(tw, src)
	default:
		n, err = tlbprefetch.GenerateWorkload(w, *refs, tw)
	}
	if err == nil {
		// The binary finishers patch the record count into the header, so
		// the digest must be taken from the finished file, not hashed
		// inline while streaming.
		err = finish(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	var digest string
	if err == nil {
		digest, err = tlbprefetch.DigestTraceFile(path)
	}
	if err != nil {
		// A failure never leaves an empty or partial trace behind.
		os.Remove(path)
		return err
	}
	if *convert != "" {
		fmt.Fprintf(stdout, "converted %d references from %s to %s (%s)\n", n, *convert, path, *format)
	} else {
		fmt.Fprintf(stdout, "wrote %d references of %s to %s\n", n, w.Name, path)
	}
	fmt.Fprintf(stdout, "sha256 %s\n", digest)
	return nil
}

// sameFile reports whether a and b name one existing file.
func sameFile(a, b string) bool {
	ai, err := os.Stat(a)
	if err != nil {
		return false
	}
	bi, err := os.Stat(b)
	return err == nil && os.SameFile(ai, bi)
}
