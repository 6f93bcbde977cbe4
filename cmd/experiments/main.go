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
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/report"
	"tlbprefetch/internal/sweep"
)

func main() {
	refs := flag.Uint64("refs", 1_000_000, "references simulated per workload")
	tlbEntries := flag.Int("tlb", 128, "TLB entries")
	tlbWays := flag.Int("ways", 0, "TLB associativity (0 = fully associative)")
	buffer := flag.Int("buffer", 16, "prefetch buffer entries (b)")
	pageShift := flag.Uint("pageshift", 12, "log2 of the page size")
	slots := flag.Int("slots", 2, "prediction slots per row (s)")
	warmup := flag.Uint64("warmup", 0, "references to simulate before counting (statistics fast-forward)")
	storePath := flag.String("store", "", "sweep result store (JSON): cells found there are not re-simulated, fresh cells are merged back")
	figFmt := flag.String("figure", "", "render fig7/fig8/fig9/table3-space/ext-modern as a grouped-bar report figure: text, csv or svg")
	quiet := flag.Bool("q", false, "suppress timing banner")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(experimentNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// Validate the experiment name before doing any work: exiting later
	// (os.Exit skips defers) would discard freshly simulated store cells.
	if !knownExperiment(flag.Arg(0)) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	switch *figFmt {
	case "", "text", "csv", "svg":
	default:
		fmt.Fprintf(os.Stderr, "unknown -figure format %q (text, csv, svg)\n", *figFmt)
		os.Exit(2)
	}
	if *figFmt != "" && !slices.Contains(figureExperiments, flag.Arg(0)) {
		fmt.Fprintf(os.Stderr, "-figure applies to a single figure experiment (%s), not %q\n",
			strings.Join(figureExperiments, ", "), flag.Arg(0))
		os.Exit(2)
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
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *storePath != "" {
		store, err := sweep.OpenStore(*storePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opts.Store = store
		defer func() {
			if err := store.Save(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	// renderFigures emits report figures in the chosen -figure format
	// (text is also the default table3-space rendering appended after its
	// flat table).
	renderFigures := func(format string, figs ...*report.Figure) {
		switch format {
		case "csv":
			for _, f := range figs {
				fmt.Print(f.CSV())
			}
		case "svg":
			fmt.Print(report.SVGDocument(figs...))
		default:
			for _, f := range figs {
				fmt.Print(f.Text())
			}
		}
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "table1":
			fmt.Println("Table 1: hardware comparison at a glance")
			fmt.Print(experiments.Table1(opts))
		case "table2":
			fmt.Println("Table 2: average and miss-rate-weighted prediction accuracy (56 apps, s=2, r=256)")
			fmt.Print(experiments.FormatTable2(experiments.Table2(opts)))
		case "table3":
			fmt.Print(experiments.FormatTable3(experiments.Table3(opts)))
		case "table3-lat":
			fmt.Println("Table 3 latency sensitivity: miss-penalty axis (50..400 cycles)")
			fmt.Print(experiments.FormatTable3Latency(
				experiments.Table3Latency(opts, experiments.DefaultLatencyAxis())))
		case "table3-space":
			rows, err := experiments.Table3Space(opts, experiments.DefaultTable3SpaceAxes())
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			if *figFmt != "" {
				renderFigures(*figFmt, experiments.Table3SpaceFigure(rows))
				break
			}
			fmt.Print(experiments.FormatTable3Space(rows))
			fmt.Println()
			renderFigures("text", experiments.Table3SpaceFigure(rows))
		case "fig7":
			res := experiments.Fig7(opts)
			if *figFmt != "" {
				renderFigures(*figFmt, experiments.FigureFromApps("Figure 7: prediction accuracy, SPEC CPU2000", res))
				break
			}
			fmt.Println("Figure 7: prediction accuracy, SPEC CPU2000")
			fmt.Print(experiments.FormatFigure(res))
		case "fig8":
			res := experiments.Fig8(opts)
			if *figFmt != "" {
				renderFigures(*figFmt, experiments.FigureFromApps("Figure 8: prediction accuracy, MediaBench / Etch / Pointer-Intensive", res))
				break
			}
			fmt.Println("Figure 8: prediction accuracy, MediaBench / Etch / Pointer-Intensive")
			fmt.Print(experiments.FormatFigure(res))
		case "fig9":
			res := experiments.Fig9(opts)
			if *figFmt != "" {
				renderFigures(*figFmt, experiments.Fig9Figures(res)...)
				break
			}
			fmt.Print(experiments.FormatFig9(res))
		case "ext-dpvariants":
			fmt.Println("Extension A: DP indexing variants (paper §4 future work)")
			fmt.Print(experiments.FormatExtDPVariants(experiments.ExtDPVariants(opts)))
		case "ext-cache":
			fmt.Println("Extension B: distance prefetching at the cache level")
			fmt.Print(experiments.FormatExtCache(experiments.ExtCache(opts)))
		case "ext-multiprog":
			fmt.Println("Extension C: multiprogramming — flush vs retain prediction tables")
			fmt.Print(experiments.FormatExtMultiprog(experiments.ExtMultiprog(opts)))
		case "ext-pagesize":
			fmt.Println("Extension D: page-size sensitivity of DP")
			fmt.Print(experiments.FormatExtPageSize(experiments.ExtPageSize(opts)))
		case "ext-tlbassoc":
			fmt.Println("Extension E: TLB-associativity sensitivity of DP")
			fmt.Print(experiments.FormatExtTLBAssoc(experiments.ExtTLBAssoc(opts)))
		case "ext-modern":
			res := experiments.ExtModern(opts)
			if *figFmt != "" {
				renderFigures(*figFmt, experiments.ExtModernFigure(res))
				break
			}
			fmt.Println("Extension F: 2002 mechanisms vs modern successors (STMS, MASP, SBFP)")
			fmt.Print(experiments.FormatExtModern(res))
		}
		if !*quiet {
			fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}

	if flag.Arg(0) == "all" {
		for _, name := range allExperiments {
			run(name)
		}
	} else {
		run(flag.Arg(0))
	}
	fmt.Fprintf(os.Stderr, "experiments: %d cells (%d cached, %d run in %d shards)\n",
		tally.Total, tally.Cached, tally.Ran, tally.Shards)
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

func knownExperiment(name string) bool {
	return slices.Contains(experimentNames(), name)
}
