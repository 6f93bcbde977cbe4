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
	"tlbprefetch/internal/prof"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload model to run (see -list)")
		traceFile    = flag.String("trace", "", "binary or text trace file to run instead of a workload")
		mech         = flag.String("mech", "DP", "mechanism: "+strings.Join(sweep.Kinds(), ", "))
		rows         = flag.Int("rows", 256, "prediction table rows r (table-based mechanisms)")
		ways         = flag.Int("ways", 1, "prediction table associativity (table-based mechanisms; 0 = direct-mapped)")
		slots        = flag.Int("slots", 2, "prediction slots per row s (mechanisms with per-row slots)")
		refs         = flag.Uint64("refs", 1_000_000, "references to simulate (workload mode)")
		tlbEntries   = flag.Int("tlb", 128, "TLB entries")
		tlbWays      = flag.Int("tlbways", 0, "TLB associativity (0 = fully associative)")
		buffer       = flag.Int("buffer", 16, "prefetch buffer entries")
		pageShift    = flag.Uint("pageshift", 12, "log2 of the page size")
		timing       = flag.Bool("timing", false, "use the cycle model (paper Table 3)")
		missPenalty  = flag.Uint64("miss-penalty", 0, "TLB miss penalty in cycles, memop/buffer-hit costs scale with it (implies -timing; 0 = paper default 100)")
		memopLat     = flag.Uint64("memop-latency", 0, "prefetch memory-op latency in cycles (implies -timing; 0 = half the miss penalty)")
		list         = flag.Bool("list", false, "list the available workload models")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-14s %-18s %s\n", "name", "suite", "model")
		for _, w := range tlbprefetch.Workloads() {
			fmt.Printf("%-14s %-18s %s\n", w.Name, w.Suite, w.PaperNote)
		}
		return
	}

	// Reject contradictory flag combinations up front instead of silently
	// preferring one input source.
	switch {
	case *workloadName != "" && *traceFile != "":
		fatal("-workload and -trace are mutually exclusive: pick one input source")
	case *workloadName == "" && *traceFile == "":
		fatal("need -workload or -trace (or -list)")
	}
	// Trace mode runs the whole file and ignores -refs.
	if *workloadName != "" && *refs == 0 {
		usageError(fmt.Errorf("-refs must be positive in workload mode"))
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
		usageError(err)
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
		usageError(verr)
	}
	if err := run(*workloadName, *traceFile, m,
		*refs, cfg, tc, *timing, *cpuProf, *memProf); err != nil {
		fatal(err.Error())
	}
}

// run simulates the input against the mechanism. A workload model and a
// trace file reach the simulator the same way: as a batch reader.
func run(workloadName, traceFile string, m sweep.Mech,
	refs uint64, cfg tlbprefetch.Config, tc tlbprefetch.TimingConfig, timing bool,
	cpuProf, memProf string) error {
	stopProf, err := prof.Start("tlbsim", cpuProf, memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	var (
		w      tlbprefetch.Workload
		src    tlbprefetch.TraceBatchReader
		closer io.Closer
	)
	switch {
	case traceFile == "":
		var ok bool
		if w, ok = tlbprefetch.WorkloadByName(workloadName); !ok {
			return fmt.Errorf("unknown workload %q (try -list)", workloadName)
		}
		s := workload.NewStream(w, refs)
		src, closer = s, s
	default:
		// Auto-detect text, v1 and v2 binary from the leading bytes.
		if src, closer, err = tlbprefetch.OpenTraceFile(traceFile); err != nil {
			return err
		}
	}
	defer closer.Close()

	pf := m.Build()
	if !timing {
		s := tlbprefetch.NewSimulator(cfg, pf)
		if err := s.RunBatch(src); err != nil {
			return err
		}
		printStats(s.Stats())
		return nil
	}
	s := tlbprefetch.NewTimingSimulator(tc, pf)
	if err := s.RunBatch(src); err != nil {
		return err
	}
	// A workload run is normalized against no prefetching over the
	// regenerated stream.
	var baseCycles uint64
	if traceFile == "" {
		baseCycles = tlbprefetch.RunWorkloadTimed(tc, nil, w, refs).Cycles
	}
	printTiming(s.Stats(), baseCycles)
	return nil
}

func printStats(st tlbprefetch.Stats) {
	fmt.Printf("references          %12d\n", st.Refs)
	fmt.Printf("TLB misses          %12d  (miss rate %.4f)\n", st.Misses, st.MissRate())
	fmt.Printf("buffer hits         %12d\n", st.BufferHits)
	fmt.Printf("demand fetches      %12d\n", st.DemandFetches)
	fmt.Printf("prediction accuracy %12.4f\n", st.Accuracy())
	fmt.Printf("prefetches issued   %12d  (%d duplicates dropped, %d never used)\n",
		st.PrefetchesIssued, st.PrefetchDuplicates, st.PrefetchesUnused)
	fmt.Printf("extra memory ops    %12d  (%d metadata + %d fetches)\n",
		st.MemOps(), st.StateMemOps, st.PrefetchesIssued)
}

func printTiming(st tlbprefetch.TimingStats, baselineCycles uint64) {
	printStats(st.Stats)
	fmt.Printf("cycles              %12d  (CPI %.3f)\n", st.Cycles, st.CPI())
	fmt.Printf("stall cycles        %12d\n", st.StallCycles)
	fmt.Printf("in-flight waits     %12d\n", st.InFlightHits)
	fmt.Printf("skipped prefetches  %12d\n", st.SkippedPref)
	if baselineCycles > 0 {
		fmt.Printf("normalized cycles   %12.3f  (vs no prefetching)\n",
			float64(st.Cycles)/float64(baselineCycles))
	}
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "tlbsim:", err)
	os.Exit(2)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "tlbsim:", msg)
	os.Exit(1)
}
