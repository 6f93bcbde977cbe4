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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

// usage reports a command-line mistake and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload model to emit (see tlbsim -list)")
		convert      = flag.String("convert", "", "input trace to re-encode instead of generating (format auto-detected)")
		refs         = flag.Uint64("refs", 1_000_000, "references to generate")
		out          = flag.String("o", "", "output file (default: <workload>.trc or .txt)")
		format       = flag.String("format", "v2", "output encoding: v2 (block binary), v1 (fixed binary), text")
		force        = flag.Bool("force", false, "overwrite the output file if it already exists")
	)
	flag.Parse()

	if (*workloadName == "") == (*convert == "") {
		usage("need exactly one of -workload or -convert")
	}
	if !slices.Contains(formats, *format) {
		usage("unknown -format %q %v", *format, formats)
	}

	var (
		src   tlbprefetch.TraceBatchReader
		srcC  io.Closer
		label string
	)
	if *convert != "" {
		var err error
		if src, srcC, err = tlbprefetch.OpenTraceFile(*convert); err != nil {
			fatal(err)
		}
		label = *convert
	} else {
		w, ok := tlbprefetch.WorkloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		label = w.Name
	}

	path := *out
	if path == "" {
		if *convert != "" {
			usage("-convert needs an explicit -o (refusing to guess a name next to the input)")
		}
		if *format == "text" {
			path = *workloadName + ".txt"
		} else {
			path = *workloadName + ".trc"
		}
	}
	if *convert != "" && sameFile(*convert, path) {
		usage("-o %s is the -convert input; write the conversion to another file", path)
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !*force {
		// O_EXCL makes the existence check race-free: the create fails
		// rather than truncating a trace some grid's keys already name.
		flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if os.IsExist(err) {
			fmt.Fprintf(os.Stderr, "tracegen: %s already exists (its digest may be referenced by sweep grids); use -force to overwrite\n", path)
			os.Exit(1)
		}
		fatal(err)
	}

	// From here on a failure removes the output, so it never leaves an
	// empty or partial trace behind.
	fail := func(err error) {
		f.Close()
		os.Remove(path)
		fatal(err)
	}
	tw, finish, err := newWriter(*format, f)
	if err != nil {
		fail(err)
	}
	var n uint64
	if *convert != "" {
		n, err = tlbprefetch.CopyTrace(tw, src)
		if cerr := srcC.Close(); err == nil {
			err = cerr
		}
	} else {
		w, _ := tlbprefetch.WorkloadByName(*workloadName)
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
	if err != nil {
		fail(err)
	}
	digest, err := tlbprefetch.DigestTraceFile(path)
	if err != nil {
		fail(err)
	}
	if *convert != "" {
		fmt.Printf("converted %d references from %s to %s (%s)\n", n, label, path, *format)
	} else {
		fmt.Printf("wrote %d references of %s to %s\n", n, label, path)
	}
	fmt.Printf("sha256 %s\n", digest)
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
