// Command tlbsim runs one TLB-prefetching simulation: a workload model (or
// a trace file) against one mechanism configuration, and prints the
// functional statistics — or the cycle accounting with -timing.
//
// Examples:
//
//	tlbsim -workload swim -mech DP -rows 256
//	tlbsim -workload mcf -mech RP -timing
//	tlbsim -trace app.trc -mech ASP -rows 512 -ways 4
//	tlbsim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tlbprefetch"
	"tlbprefetch/internal/cli"
	"tlbprefetch/internal/prof"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: statistics go to stdout, diagnostics to
// stderr, and the result is the process exit code (cli.Rule).
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Code("tlbsim", stderr, simulate(args, stdout, stderr))
}

// simulate checks every flag, then runs the input against the mechanism.
// A workload model and a trace file reach the simulator the same way: as
// a batch reader.
func simulate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tlbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload model to run (see -list)")
		traceFile    = fs.String("trace", "", "binary or text trace file to run instead of a workload")
		mech         = fs.String("mech", "DP", "mechanism: "+strings.Join(sweep.Kinds(), ", "))
		rows         = fs.Int("rows", 256, "prediction table rows r (table-based mechanisms)")
		ways         = fs.Int("ways", 1, "prediction table associativity (table-based mechanisms; 0 = direct-mapped)")
		slots        = fs.Int("slots", 2, "prediction slots per row s (mechanisms with per-row slots)")
		refs         = fs.Uint64("refs", 1_000_000, "references to simulate (workload mode)")
		tlbEntries   = fs.Int("tlb", 128, "TLB entries")
		tlbWays      = fs.Int("tlbways", 0, "TLB associativity (0 = fully associative)")
		buffer       = fs.Int("buffer", 16, "prefetch buffer entries")
		pageShift    = fs.Uint("pageshift", 12, "log2 of the page size")
		timing       = fs.Bool("timing", false, "use the cycle model (paper Table 3)")
		missPenalty  = fs.Uint64("miss-penalty", 0, "TLB miss penalty in cycles, memop/buffer-hit costs scale with it (implies -timing; 0 = paper default 100)")
		memopLat     = fs.Uint64("memop-latency", 0, "prefetch memory-op latency in cycles (implies -timing; 0 = half the miss penalty)")
		list         = fs.Bool("list", false, "list the available workload models")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = fs.String("memprofile", "", "write a heap profile to this file")
	)
	fs.Usage = func() {
		fmt.Fprint(stderr, "usage: tlbsim [flags]\n\n", cli.Rule, "\n")
		fs.PrintDefaults()
	}
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "%-14s %-18s %s\n", "name", "suite", "model")
		for _, w := range tlbprefetch.Workloads() {
			fmt.Fprintf(stdout, "%-14s %-18s %s\n", w.Name, w.Suite, w.PaperNote)
		}
		return nil
	}

	// Reject contradictory flag combinations up front instead of silently
	// preferring one input source.
	switch {
	case *workloadName != "" && *traceFile != "":
		return cli.Usagef("-workload and -trace are mutually exclusive: pick one input source")
	case *workloadName == "" && *traceFile == "":
		return cli.Usagef("need -workload or -trace (or -list)")
	}
	w, ok := tlbprefetch.WorkloadByName(*workloadName)
	// Trace mode runs the whole file and ignores -refs.
	switch {
	case *traceFile != "":
	case !ok:
		return cli.Usagef("unknown workload %q (try -list)", *workloadName)
	case *refs == 0:
		return cli.Usagef("-refs must be positive in workload mode")
	}

	// Either timing-constant flag opts into the cycle model.
	if *missPenalty != 0 || *memopLat != 0 {
		*timing = true
	}
	cfg := tlbprefetch.Config{
		TLB:           tlbprefetch.TLBConfig{Entries: *tlbEntries, Ways: *tlbWays},
		BufferEntries: *buffer,
		PageShift:     *pageShift,
	}
	// The mechanism and the cycle model resolve exactly as a tlbsweep cell
	// does, so a tlbsim spot check reproduces a swept cell's numbers.
	m := sweep.Mech{Kind: sweep.ParseKind(*mech), Rows: *rows, Ways: *ways, Slots: *slots}
	var axes sweep.TimingAxes
	if *missPenalty != 0 {
		axes.MissPenalties = []uint64{*missPenalty}
	}
	if *memopLat != 0 {
		axes.MemOpLatencies = []uint64{*memopLat}
	}
	pts, err := axes.Points()
	if err != nil {
		return cli.Usage(err)
	}
	tc := pts[0].Config(cfg)
	// Reject a geometry or mechanism the simulator cannot model here, as a
	// usage error, rather than let a constructor panic on it.
	verr := cfg.Validate()
	if *timing {
		verr = tc.Validate()
	}
	if verr == nil {
		verr = m.Validate()
	}
	if verr != nil {
		return cli.Usage(verr)
	}

	stopProf, err := prof.Start("tlbsim", *cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	// OpenTraceFile tells text, v1 and v2 binary apart by their leading
	// bytes.
	var (
		src    tlbprefetch.TraceBatchReader
		closer io.Closer
	)
	if *traceFile == "" {
		s := workload.NewStream(w, *refs)
		src, closer = s, s
	} else if src, closer, err = tlbprefetch.OpenTraceFile(*traceFile); err != nil {
		return err
	}
	defer closer.Close()

	pf := m.Build()
	if !*timing {
		s := tlbprefetch.NewSimulator(cfg, pf)
		if err := s.RunBatch(src); err != nil {
			return err
		}
		printStats(stdout, s.Stats())
		return nil
	}
	s := tlbprefetch.NewTimingSimulator(tc, pf)
	if err := s.RunBatch(src); err != nil {
		return err
	}
	// A workload run is normalized against no prefetching over the
	// regenerated stream.
	var baseCycles uint64
	if *traceFile == "" {
		baseCycles = tlbprefetch.RunWorkloadTimed(tc, nil, w, *refs).Cycles
	}
	printTiming(stdout, s.Stats(), baseCycles)
	return nil
}

func printStats(out io.Writer, st tlbprefetch.Stats) {
	fmt.Fprintf(out, "references          %12d\n", st.Refs)
	fmt.Fprintf(out, "TLB misses          %12d  (miss rate %.4f)\n", st.Misses, st.MissRate())
	fmt.Fprintf(out, "buffer hits         %12d\n", st.BufferHits)
	fmt.Fprintf(out, "demand fetches      %12d\n", st.DemandFetches)
	fmt.Fprintf(out, "prediction accuracy %12.4f\n", st.Accuracy())
	fmt.Fprintf(out, "prefetches issued   %12d  (%d duplicates dropped, %d never used)\n",
		st.PrefetchesIssued, st.PrefetchDuplicates, st.PrefetchesUnused)
	fmt.Fprintf(out, "extra memory ops    %12d  (%d metadata + %d fetches)\n",
		st.MemOps(), st.StateMemOps, st.PrefetchesIssued)
}

func printTiming(out io.Writer, st tlbprefetch.TimingStats, baselineCycles uint64) {
	printStats(out, st.Stats)
	fmt.Fprintf(out, "cycles              %12d  (CPI %.3f)\n", st.Cycles, st.CPI())
	fmt.Fprintf(out, "stall cycles        %12d\n", st.StallCycles)
	fmt.Fprintf(out, "in-flight waits     %12d\n", st.InFlightHits)
	fmt.Fprintf(out, "skipped prefetches  %12d\n", st.SkippedPref)
	if baselineCycles > 0 {
		fmt.Fprintf(out, "normalized cycles   %12.3f  (vs no prefetching)\n",
			float64(st.Cycles)/float64(baselineCycles))
	}
}
