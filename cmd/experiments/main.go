// Command experiments regenerates the tables and figures of Kandiraju &
// Sivasubramaniam, "Going the Distance for TLB Prefetching" (ISCA 2002),
// plus the ext-* extension studies and the table3-lat/table3-space
// design-space studies (docs/EXPERIMENTS.md walks every one).
//
// Usage:
//
//	experiments [flags] <experiment>
//
// Experiments: table1, table2, table3, table3-lat, table3-space, fig7,
// fig8, fig9, ext-dpvariants, ext-cache, ext-multiprog, ext-pagesize,
// ext-tlbassoc, ext-modern, all.
//
// The figure experiments (fig7, fig8, fig9, table3-space, ext-modern) can
// also render as paper-style grouped-bar figures: -figure text|csv|svg
// switches the output to internal/report's renderers (fig9's four panels
// stack into one SVG document).
//
// Exit codes follow cli.Rule, which the usage screen prints: 2 for a flag
// or argument mistake, 1 for a store that cannot be opened or saved.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"tlbprefetch/internal/cli"
	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/report"
	"tlbprefetch/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: results go to stdout, diagnostics to stderr,
// and the result is the process exit code (cli.Rule).
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Code("experiments", stderr, regenerate(args, stdout, stderr))
}

// regenerate checks every flag and the experiment name, then runs the
// experiment (every paper one, in order, for "all").
func regenerate(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	refs := fs.Uint64("refs", 1_000_000, "references simulated per workload")
	tlbEntries := fs.Int("tlb", 128, "TLB entries")
	tlbWays := fs.Int("ways", 0, "TLB associativity (0 = fully associative)")
	buffer := fs.Int("buffer", 16, "prefetch buffer entries (b)")
	pageShift := fs.Uint("pageshift", 12, "log2 of the page size")
	slots := fs.Int("slots", 2, "prediction slots per row (s)")
	warmup := fs.Uint64("warmup", 0, "references to simulate before counting (statistics fast-forward)")
	storePath := fs.String("store", "", "sweep result store (JSON): cells found there are not re-simulated, fresh cells are merged back")
	figFmt := fs.String("figure", "", "render fig7/fig8/fig9/table3-space/ext-modern as a grouped-bar report figure: text, csv or svg")
	quiet := fs.Bool("q", false, "suppress timing banner")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: experiments [flags] <experiment>\n")
		fmt.Fprintf(stderr, "experiments: %s\n\n", strings.Join(experimentNames(), " "))
		fmt.Fprint(stderr, cli.Rule, "\n")
		fs.PrintDefaults()
	}
	// cli.Parse refuses every positional argument; this command takes
	// exactly one, the experiment.
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return cli.Exit(0)
	case err != nil:
		return cli.Exit(2)
	case fs.NArg() != 1:
		fs.Usage()
		return cli.Exit(2)
	}
	// Validate the experiment name before doing any work, so a typo costs
	// no simulation.
	name := fs.Arg(0)
	if !slices.Contains(experimentNames(), name) {
		fs.Usage()
		return cli.Usagef("unknown experiment %q", name)
	}
	switch *figFmt {
	case "", "text", "csv", "svg":
	default:
		return cli.Usagef("unknown -figure format %q (text, csv, svg)", *figFmt)
	}
	if *figFmt != "" && !slices.Contains(figureExperiments, name) {
		return cli.Usagef("-figure applies to a single figure experiment (%s), not %q",
			strings.Join(figureExperiments, ", "), name)
	}

	tally := &sweep.Summary{}
	opts := experiments.Options{
		Refs:       *refs,
		TLBEntries: *tlbEntries,
		TLBWays:    *tlbWays,
		Buffer:     *buffer,
		PageShift:  *pageShift,
		Slots:      *slots,
		WarmupRefs: *warmup,
		Tally:      tally,
	}
	// Reject a geometry the simulator cannot model here, as a usage error,
	// rather than let the first experiment's constructor panic on it.
	if err := opts.Validate(); err != nil {
		return cli.Usage(err)
	}
	if *storePath != "" {
		if opts.Store, err = sweep.OpenStore(*storePath); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, opts.Store.Save()) }()
	}

	runOne := func(name string) error {
		start := time.Now()
		switch name {
		case "table1":
			fmt.Fprintln(stdout, "Table 1: hardware comparison at a glance")
			fmt.Fprint(stdout, experiments.Table1(opts))
		case "table2":
			fmt.Fprintln(stdout, "Table 2: average and miss-rate-weighted prediction accuracy (56 apps, s=2, r=256)")
			fmt.Fprint(stdout, experiments.FormatTable2(experiments.Table2(opts)))
		case "table3":
			fmt.Fprint(stdout, experiments.FormatTable3(experiments.Table3(opts)))
		case "table3-lat":
			fmt.Fprintln(stdout, "Table 3 latency sensitivity: miss-penalty axis (50..400 cycles)")
			rows, err := experiments.Table3Space(opts, experiments.DefaultLatencyAxis())
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.FormatTable3Latency(rows))
		case "table3-space":
			rows, err := experiments.Table3Space(opts, experiments.DefaultTable3SpaceAxes())
			if err != nil {
				return err
			}
			if *figFmt != "" {
				fmt.Fprint(stdout, report.Render(*figFmt, experiments.Table3SpaceFigure(rows)))
				break
			}
			fmt.Fprint(stdout, experiments.FormatTable3Space(rows))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, experiments.Table3SpaceFigure(rows).Text())
		case "fig7":
			res := experiments.Fig7(opts)
			if *figFmt != "" {
				fmt.Fprint(stdout, report.Render(*figFmt, experiments.FigureFromApps("Figure 7: prediction accuracy, SPEC CPU2000", res)))
				break
			}
			fmt.Fprintln(stdout, "Figure 7: prediction accuracy, SPEC CPU2000")
			fmt.Fprint(stdout, experiments.FormatFigure(res))
		case "fig8":
			res := experiments.Fig8(opts)
			if *figFmt != "" {
				fmt.Fprint(stdout, report.Render(*figFmt, experiments.FigureFromApps("Figure 8: prediction accuracy, MediaBench / Etch / Pointer-Intensive", res)))
				break
			}
			fmt.Fprintln(stdout, "Figure 8: prediction accuracy, MediaBench / Etch / Pointer-Intensive")
			fmt.Fprint(stdout, experiments.FormatFigure(res))
		case "fig9":
			res := experiments.Fig9(opts)
			if *figFmt != "" {
				fmt.Fprint(stdout, report.Render(*figFmt, experiments.Fig9Figures(res)...))
				break
			}
			fmt.Fprint(stdout, experiments.FormatFig9(res))
		case "ext-dpvariants":
			fmt.Fprintln(stdout, "Extension A: DP indexing variants (paper §4 future work)")
			fmt.Fprint(stdout, experiments.FormatFigure(experiments.ExtDPVariants(opts)))
		case "ext-cache":
			fmt.Fprintln(stdout, "Extension B: distance prefetching at the cache level")
			fmt.Fprint(stdout, experiments.FormatExtCache(experiments.ExtCache(opts)))
		case "ext-multiprog":
			fmt.Fprintln(stdout, "Extension C: multiprogramming — flush vs retain prediction tables")
			fmt.Fprint(stdout, experiments.FormatExtMultiprog(experiments.ExtMultiprog(opts)))
		case "ext-pagesize":
			fmt.Fprintln(stdout, "Extension D: page-size sensitivity of DP")
			fmt.Fprint(stdout, experiments.FormatExtPageSize(experiments.ExtPageSize(opts)))
		case "ext-tlbassoc":
			fmt.Fprintln(stdout, "Extension E: TLB-associativity sensitivity of DP")
			fmt.Fprint(stdout, experiments.FormatFigure(experiments.ExtTLBAssoc(opts)))
		case "ext-modern":
			res := experiments.ExtModern(opts)
			if *figFmt != "" {
				fmt.Fprint(stdout, report.Render(*figFmt, experiments.FigureFromApps("Extension F: 2002 mechanisms vs modern successors", res)))
				break
			}
			fmt.Fprintln(stdout, "Extension F: 2002 mechanisms vs modern successors (STMS, MASP, SBFP)")
			fmt.Fprint(stdout, experiments.FormatFigure(res))
		}
		if !*quiet {
			fmt.Fprintf(stdout, "\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	names := []string{name}
	if name == "all" {
		names = allExperiments
	}
	for _, n := range names {
		if err := runOne(n); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "experiments: %d cells (%d cached, %d run in %d shards)\n",
		tally.Total, tally.Cached, tally.Ran, tally.Shards)
	return nil
}

// allExperiments is the "all" ordering (the paper's presentation order,
// extensions last). The onDemandExperiments stay out of it to keep that
// output stable.
var allExperiments = []string{
	"table1", "fig7", "fig8", "table2", "table3", "fig9",
	"ext-dpvariants", "ext-cache", "ext-multiprog", "ext-pagesize",
	"ext-tlbassoc", "ext-modern",
}

// onDemandExperiments run only when named: they share table3's
// default-point cells through the store but extend its timing axes.
var onDemandExperiments = []string{"table3-lat", "table3-space"}

// figureExperiments can render as report figures with -figure (the
// per-application accuracy panels and the design-space study).
var figureExperiments = []string{"fig7", "fig8", "fig9", "table3-space", "ext-modern"}

// experimentNames lists every name the command accepts.
func experimentNames() []string {
	return slices.Concat(allExperiments, onDemandExperiments, []string{"all"})
}
