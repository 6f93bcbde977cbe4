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
	"os"
	"strings"

	"tlbprefetch"
	"tlbprefetch/internal/prof"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload model to run (see -list)")
		traceFile    = flag.String("trace", "", "binary or text trace file to run instead of a workload")
		traceText    = flag.Bool("text", false, "treat -trace as the text format")
		mech         = flag.String("mech", "DP", "mechanism: DP, DP-PC, DP2, RP, RP3, MP, ASP, SP, SP-A, STMS, MASP, SBFP, none")
		rows         = flag.Int("rows", 256, "prediction table rows r (DP/MP/ASP)")
		ways         = flag.Int("ways", 1, "prediction table associativity (DP/MP/ASP)")
		slots        = flag.Int("slots", 2, "prediction slots per row s (DP/MP)")
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
	case *traceText && *traceFile == "":
		fatal("-text only applies to trace runs: it requires -trace")
	case *workloadName == "" && *traceFile == "":
		fatal("need -workload or -trace (or -list)")
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
	tc := timingConfig(cfg, *missPenalty, *memopLat)
	// Reject a geometry the simulator cannot model here, as a usage error,
	// rather than let the constructor panic on it.
	verr := cfg.Validate()
	if *timing {
		verr = tc.Validate()
	}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "tlbsim:", verr)
		os.Exit(2)
	}
	if err := run(*workloadName, *traceFile, *traceText, *mech, *rows, *ways, *slots,
		*refs, cfg, tc, *timing, *cpuProf, *memProf); err != nil {
		fatal(err.Error())
	}
}

// timingConfig returns the cycle model for cfg's geometry under the
// -miss-penalty and -memop-latency flags (0 keeps the paper default).
func timingConfig(cfg tlbprefetch.Config, missPenalty, memopLat uint64) tlbprefetch.TimingConfig {
	tc := tlbprefetch.DefaultTimingConfig()
	if missPenalty != 0 {
		// Same recalibration tlbsweep's -miss-penalty axis uses, so a
		// tlbsim spot check reproduces a swept cell's cycle counts.
		tc = tlbprefetch.ScaledTimingConfig(missPenalty)
	}
	tc.Config = cfg
	if memopLat != 0 {
		tc.MemOpLatency = memopLat
		// An explicit latency below the channel occupancy means the
		// channel is fully serialized at that latency (same rule as
		// tlbsweep's -memop-latency axis).
		if tc.MemOpOccupancy > tc.MemOpLatency {
			tc.MemOpOccupancy = tc.MemOpLatency
		}
	}
	return tc
}

func run(workloadName, traceFile string, traceText bool, mech string, rows, ways, slots int,
	refs uint64, cfg tlbprefetch.Config, tc tlbprefetch.TimingConfig, timing bool,
	cpuProf, memProf string) error {
	stopProf, err := prof.Start("tlbsim", cpuProf, memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	pf, err := buildMechanism(mech, rows, ways, slots)
	if err != nil {
		return err
	}

	if traceFile != "" {
		return runTrace(cfg, tc, pf, traceFile, traceText, timing)
	}
	w, ok := tlbprefetch.WorkloadByName(workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", workloadName)
	}
	if timing {
		base := tlbprefetch.RunWorkloadTimed(tc, nil, w, refs)
		st := tlbprefetch.RunWorkloadTimed(tc, pf, w, refs)
		printTiming(st, base.Cycles)
	} else {
		st := tlbprefetch.RunWorkload(cfg, pf, w, refs)
		printStats(st)
	}
	return nil
}

func buildMechanism(kind string, rows, ways, slots int) (tlbprefetch.Prefetcher, error) {
	switch strings.ToUpper(kind) {
	case "DP":
		return tlbprefetch.NewDistance(rows, ways, slots), nil
	case "DP-PC":
		return tlbprefetch.NewDistancePC(rows, ways, slots), nil
	case "DP2":
		return tlbprefetch.NewDistance2(rows, ways, slots), nil
	case "RP":
		return tlbprefetch.NewRecency(), nil
	case "RP3":
		return tlbprefetch.NewRecencyDegree(3), nil
	case "MP":
		return tlbprefetch.NewMarkov(rows, ways, slots), nil
	case "ASP":
		return tlbprefetch.NewASP(rows, ways), nil
	case "SP":
		return tlbprefetch.NewSequential(true), nil
	case "SP-A":
		return tlbprefetch.NewAdaptiveSequential(), nil
	case "STMS":
		return tlbprefetch.NewSTMS(rows, ways, slots), nil
	case "MASP":
		return tlbprefetch.NewMASP(rows, ways, slots), nil
	case "SBFP":
		return tlbprefetch.NewSBFP(), nil
	case "NONE":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown mechanism %q", kind)
}

func runTrace(cfg tlbprefetch.Config, tc tlbprefetch.TimingConfig,
	pf tlbprefetch.Prefetcher, path string, text, timing bool) error {
	var r tlbprefetch.TraceReader
	if text {
		// Forced text mode, for text traces whose first bytes happen to
		// collide with the binary magic.
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = tlbprefetch.NewTextTraceReader(f)
	} else {
		// Auto-detect text, v1 and v2 binary from the leading bytes.
		or, closer, err := tlbprefetch.OpenTraceFile(path)
		if err != nil {
			return err
		}
		defer closer.Close()
		r = or
	}
	if timing {
		s := tlbprefetch.NewTimingSimulator(tc, pf)
		if err := s.Run(r); err != nil {
			return err
		}
		printTiming(s.Stats(), 0)
		return nil
	}
	s := tlbprefetch.NewSimulator(cfg, pf)
	if err := s.Run(r); err != nil {
		return err
	}
	printStats(s.Stats())
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

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "tlbsim:", msg)
	os.Exit(1)
}
