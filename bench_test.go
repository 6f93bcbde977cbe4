// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per artifact (internal/experiments maps each to its grid). They run
// scaled-down experiment bodies and report the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` doubles as a quick reproduction
// pass; cmd/experiments produces the full-scale versions.
package tlbprefetch_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tlbprefetch"
	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// benchOpts scales an experiment to benchmark-friendly size.
func benchOpts(refs uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Refs = refs
	return o
}

// BenchmarkFig7 regenerates Figure 7 (prediction accuracy, 26 SPEC CPU2000
// applications, 21 mechanism configurations each).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(benchOpts(100_000))
		if len(res) != 26 {
			b.Fatalf("fig7 rows = %d", len(res))
		}
		if i == b.N-1 {
			dp, _ := res[0].Get("DP,256,D")
			b.ReportMetric(dp, "gzip-DP256-acc")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (MediaBench + Etch + Pointer-Intensive).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(benchOpts(100_000))
		if len(res) != 30 {
			b.Fatalf("fig8 rows = %d", len(res))
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (plain and miss-rate-weighted average
// accuracy over all 56 applications).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(benchOpts(100_000))
		if i == b.N-1 {
			for _, row := range res.Rows {
				if row.Mechanism == "DP" {
					b.ReportMetric(row.Average, "DP-avg")
					b.ReportMetric(row.WeightedAvg, "DP-wavg")
				}
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (normalized execution cycles, RP vs
// DP, under the paper's timing model).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(benchOpts(200_000))
		if i == b.N-1 {
			for _, r := range rows {
				if r.App == "ammp" {
					b.ReportMetric(r.DPNormalized, "ammp-DP-normcycles")
					b.ReportMetric(r.RPNormalized, "ammp-RP-normcycles")
				}
			}
		}
	}
}

// BenchmarkFig9 regenerates the DP sensitivity analysis (table geometry,
// slots, buffer size, TLB size over the eight high-miss applications).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(benchOpts(100_000))
		if len(res.TableGeometry) != 8 {
			b.Fatalf("fig9 apps = %d", len(res.TableGeometry))
		}
	}
}

// BenchmarkExtDPVariants runs the paper's future-work indexing variants
// (PC+distance, two-distance) against plain DP.
func BenchmarkExtDPVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtDPVariants(benchOpts(100_000))
	}
}

// BenchmarkExtCache runs the cache-level DP demonstration.
func BenchmarkExtCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtCache(benchOpts(200_000))
		if i == b.N-1 {
			for _, r := range rows {
				if r.Workload == "cache-motif" {
					b.ReportMetric(r.DP, "cache-motif-DP-acc")
				}
			}
		}
	}
}

// BenchmarkExtMultiprog runs the context-switch table-policy study.
func BenchmarkExtMultiprog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtMultiprog(benchOpts(150_000))
	}
}

// BenchmarkExtPageSize runs the page-size sensitivity sweep.
func BenchmarkExtPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtPageSize(benchOpts(100_000))
	}
}

// BenchmarkExtTLBAssoc runs the TLB-associativity sensitivity sweep.
func BenchmarkExtTLBAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtTLBAssoc(benchOpts(100_000))
	}
}

// --- Sweep-engine benches ---------------------------------------------------

// benchSweepJobs is a 2 workloads × 4 mechanisms × 2 TLB sizes × 2 buffer
// sizes grid (32 cells, 8 shards).
func benchSweepJobs(b *testing.B) []sweep.Job {
	jobs, err := sweep.Grid{
		Workloads: []string{"swim", "mcf"},
		Mechs: []sweep.Mech{
			{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
			{Kind: "RP"},
			{Kind: "ASP", Rows: 256, Ways: 1},
			{Kind: "MP", Rows: 256, Ways: 1, Slots: 2},
		},
		TLBEntries: []int{64, 128},
		Buffers:    []int{8, 16},
		Refs:       50_000,
	}.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// BenchmarkSweepCold runs the grid with no result store: every cell
// simulates, geometry-identical cells coalescing onto shared frontends.
func BenchmarkSweepCold(b *testing.B) {
	jobs := benchSweepJobs(b)
	b.ReportMetric(float64(len(jobs)), "cells")
	for i := 0; i < b.N; i++ {
		r := sweep.Runner{}
		if _, sum, err := r.Run(jobs); err != nil || sum.Ran != len(jobs) {
			b.Fatalf("sum=%+v err=%v", sum, err)
		}
	}
}

// BenchmarkSweepCached re-runs the grid against a warm store: the
// incremental-sweep fast path (hash, look up, emit) with zero simulation.
func BenchmarkSweepCached(b *testing.B) {
	jobs := benchSweepJobs(b)
	st := sweep.NewStore()
	if _, _, err := (&sweep.Runner{Store: st}).Run(jobs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sweep.Runner{Store: st}
		if _, sum, err := r.Run(jobs); err != nil || sum.Ran != 0 {
			b.Fatalf("sum=%+v err=%v", sum, err)
		}
	}
}

// --- Ablation benches for the paper's headline design claims --------------

// BenchmarkAblationDPTableSize measures DP accuracy as the table shrinks
// (the paper's claim: 32 rows already work).
func BenchmarkAblationDPTableSize(b *testing.B) {
	w, _ := tlbprefetch.WorkloadByName("galgel")
	for _, rows := range []int{1024, 256, 32} {
		b.Run(labelRows(rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(),
					tlbprefetch.NewDistance(rows, 1, 2), w, 200_000)
				if i == b.N-1 {
					b.ReportMetric(st.Accuracy(), "acc")
				}
			}
		})
	}
}

func labelRows(r int) string {
	switch r {
	case 1024:
		return "r1024"
	case 256:
		return "r256"
	default:
		return "r32"
	}
}

// BenchmarkAblationTaggedSP compares tagged vs plain sequential prefetching
// (the paper adopts the tagged variant following Vanderwiel & Lilja).
func BenchmarkAblationTaggedSP(b *testing.B) {
	w, _ := tlbprefetch.WorkloadByName("gzip")
	for _, tagged := range []bool{true, false} {
		name := "plain"
		if tagged {
			name = "tagged"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(),
					tlbprefetch.NewSequential(tagged), w, 200_000)
				if i == b.N-1 {
					b.ReportMetric(st.Accuracy(), "acc")
				}
			}
		})
	}
}

// BenchmarkAblationAdaptiveSP compares tagged SP against the
// Dahlgren/Dubois/Stenström adaptive variant — the paper's observation that
// "simulations have shown only slight differences between these schemes".
func BenchmarkAblationAdaptiveSP(b *testing.B) {
	w, _ := tlbprefetch.WorkloadByName("gzip")
	for _, adaptive := range []bool{false, true} {
		name := "tagged"
		mk := func() tlbprefetch.Prefetcher { return tlbprefetch.NewSequential(true) }
		if adaptive {
			name = "adaptive"
			mk = func() tlbprefetch.Prefetcher { return tlbprefetch.NewAdaptiveSequential() }
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(), mk(), w, 200_000)
				if i == b.N-1 {
					b.ReportMetric(st.Accuracy(), "acc")
				}
			}
		})
	}
}

// BenchmarkAblationRPDegree compares the paper's 2-neighbour RP against
// Saulsbury et al.'s 3-entry variant: accuracy gain vs extra traffic.
func BenchmarkAblationRPDegree(b *testing.B) {
	w, _ := tlbprefetch.WorkloadByName("ammp")
	for _, degree := range []int{2, 3} {
		name := "deg2"
		if degree == 3 {
			name = "deg3"
		}
		degree := degree
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(),
					tlbprefetch.NewRecencyDegree(degree), w, 200_000)
				if i == b.N-1 {
					b.ReportMetric(st.Accuracy(), "acc")
					b.ReportMetric(float64(st.MemOps()), "memops")
				}
			}
		})
	}
}

// BenchmarkAblationRPSkipRule measures the cycle effect of RP's
// skip-prefetch-when-busy rule (the paper's benefit-of-the-doubt model).
func BenchmarkAblationRPSkipRule(b *testing.B) {
	w, _ := tlbprefetch.WorkloadByName("mcf")
	for _, skip := range []bool{true, false} {
		name := "noskip"
		if skip {
			name = "skip"
		}
		b.Run(name, func(b *testing.B) {
			tc := tlbprefetch.DefaultTimingConfig()
			tc.RPSkipWhenBusy = skip
			for i := 0; i < b.N; i++ {
				st := tlbprefetch.RunWorkloadTimed(tc, tlbprefetch.NewRecency(), w, 200_000)
				if i == b.N-1 {
					b.ReportMetric(st.CPI(), "CPI")
				}
			}
		})
	}
}

// --- Hot-path benches: raw references/second and allocations ---------------

// benchTrace materializes a workload's reference stream once per
// (workload, length) so the throughput benches time the simulator
// pipeline, not the generator.
var benchTraceCache = map[string][]tlbprefetch.Ref{}

func benchTrace(b *testing.B, name string, n uint64) []tlbprefetch.Ref {
	key := fmt.Sprintf("%s/%d", name, n)
	if refs, ok := benchTraceCache[key]; ok {
		return refs
	}
	w, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	refs := make([]tlbprefetch.Ref, 0, n)
	workload.Generate(w, n, func(pc, vaddr uint64) bool {
		refs = append(refs, tlbprefetch.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	benchTraceCache[key] = refs
	return refs
}

// throughputMechs are the per-mechanism sub-benchmark targets at their
// figure operating points: every kind in the sweep registry has a row here
// (the AST gate in internal/sweep/coverage_test.go enforces it).
func throughputMechs() map[string]func() tlbprefetch.Prefetcher {
	return map[string]func() tlbprefetch.Prefetcher{
		"none":  func() tlbprefetch.Prefetcher { return nil },
		"SP":    func() tlbprefetch.Prefetcher { return tlbprefetch.NewSequential(true) },
		"SP-A":  func() tlbprefetch.Prefetcher { return tlbprefetch.NewAdaptiveSequential() },
		"ASP":   func() tlbprefetch.Prefetcher { return tlbprefetch.NewASP(256, 1) },
		"MP":    func() tlbprefetch.Prefetcher { return tlbprefetch.NewMarkov(256, 1, 2) },
		"RP":    func() tlbprefetch.Prefetcher { return tlbprefetch.NewRecency() },
		"RP3":   func() tlbprefetch.Prefetcher { return tlbprefetch.NewRecencyDegree(3) },
		"DP":    func() tlbprefetch.Prefetcher { return tlbprefetch.NewDistance(256, 1, 2) },
		"DP-PC": func() tlbprefetch.Prefetcher { return tlbprefetch.NewDistancePC(256, 1, 2) },
		"DP2":   func() tlbprefetch.Prefetcher { return tlbprefetch.NewDistance2(256, 1, 2) },
		"STMS":  func() tlbprefetch.Prefetcher { return tlbprefetch.NewSTMS(16384, 1, 2) },
		"MASP":  func() tlbprefetch.Prefetcher { return tlbprefetch.NewMASP(256, 1, 2) },
		"SBFP":  func() tlbprefetch.Prefetcher { return tlbprefetch.NewSBFP() },
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (references
// per second drive every experiment's wall-clock) by replaying a
// pre-materialized trace through each mechanism's pipeline. ns/op is
// ns/reference; allocs/op must be 0 in steady state for the on-chip
// mechanisms (RP allocates only while its page table is still growing).
// "swim" exercises the TLB-hit fast path (~1% miss rate); the /mcf
// sub-benchmarks exercise the miss pipeline (~9% miss rate), where the
// O(1) structures pay off most.
func BenchmarkSimulatorThroughput(b *testing.B) {
	refs := benchTrace(b, "swim", 4_000_000)
	for _, name := range []string{"none", "SP", "ASP", "MP", "RP", "DP", "STMS", "MASP", "SBFP"} {
		mk := throughputMechs()[name]
		b.Run(name, func(b *testing.B) {
			s := tlbprefetch.NewSimulator(tlbprefetch.DefaultConfig(), mk())
			// Warm all structures to steady state before measuring.
			for _, r := range refs[:len(refs)/4] {
				s.Ref(r.PC, r.VAddr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			idx := 0
			for i := 0; i < b.N; i++ {
				r := refs[idx]
				if idx++; idx == len(refs) {
					idx = 0
				}
				s.Ref(r.PC, r.VAddr)
			}
		})
	}
}

// BenchmarkSimulatorThroughputMcf replays the miss-heavy mcf stream (the
// paper's hardest SPEC application) through the baseline, DP and RP
// pipelines; mcf's miss rate makes the RP row time the page-table stack.
func BenchmarkSimulatorThroughputMcf(b *testing.B) {
	refs := benchTrace(b, "mcf", 4_000_000)
	for _, name := range []string{"none", "DP", "RP"} {
		mk := throughputMechs()[name]
		b.Run(name, func(b *testing.B) {
			s := tlbprefetch.NewSimulator(tlbprefetch.DefaultConfig(), mk())
			for _, r := range refs[:len(refs)/4] {
				s.Ref(r.PC, r.VAddr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			idx := 0
			for i := 0; i < b.N; i++ {
				r := refs[idx]
				if idx++; idx == len(refs) {
					idx = 0
				}
				s.Ref(r.PC, r.VAddr)
			}
		})
	}
}

// BenchmarkSimulatorThroughputGenerated is the pre-refactor fused loop —
// workload generation feeding the DP,256 simulator — kept for continuity
// with older baselines (generation itself costs ~6 ns/ref of the total).
func BenchmarkSimulatorThroughputGenerated(b *testing.B) {
	w, _ := tlbprefetch.WorkloadByName("swim")
	b.ReportAllocs()
	b.ResetTimer()
	refs := uint64(b.N)
	st := tlbprefetch.RunWorkload(tlbprefetch.DefaultConfig(), tlbprefetch.NewDistance(256, 1, 2), w, refs)
	if st.Refs != refs {
		b.Fatalf("simulated %d refs, want %d", st.Refs, refs)
	}
}

// BenchmarkGroupFanout measures the shared-frontend win: the full 21-way
// mechanism fan-out of Figure 7 fed in runner-sized RefBatch chunks, with
// the canonical shared TLB of a Group against 21 independent pipelines.
// ns/op is ns per reference delivered.
func BenchmarkGroupFanout(b *testing.B) {
	refs := benchTrace(b, "swim", 4_000_000)
	build := func() []*tlbprefetch.Simulator {
		var ms []*tlbprefetch.Simulator
		for _, m := range experiments.Fig7Configs() {
			ms = append(ms, tlbprefetch.NewSimulator(tlbprefetch.DefaultConfig(),
				m.Build(experiments.DefaultOptions())))
		}
		return ms
	}
	// chunks calls feed with b.N references in chunks of at most 4096,
	// cycling through refs.
	chunks := func(b *testing.B, feed func([]tlbprefetch.Ref)) {
		b.ReportAllocs()
		b.ResetTimer()
		idx := 0
		for left := b.N; left > 0; {
			n := min(4096, left, len(refs)-idx)
			feed(refs[idx : idx+n])
			left -= n
			if idx += n; idx == len(refs) {
				idx = 0
			}
		}
	}
	b.Run("shared", func(b *testing.B) {
		g := tlbprefetch.NewGroup(build()...)
		chunks(b, g.RefBatch)
	})
	b.Run("independent", func(b *testing.B) {
		members := build()
		chunks(b, func(c []tlbprefetch.Ref) {
			for _, m := range members {
				m.RefBatch(c)
			}
		})
	})
}

// mixInterleaver schedules materialized streams the way a mix shard does:
// a StreamInterleaver over one slice reader per process.
func mixInterleaver(streams [][]tlbprefetch.Ref) *multiprog.StreamInterleaver {
	srcs := make([]trace.BatchReader, len(streams))
	for i, s := range streams {
		srcs[i] = trace.NewSliceReader(s)
	}
	return multiprog.NewStreamInterleaver(srcs, 20_000)
}

// BenchmarkMixInterleaver measures the multiprogramming interleaver's
// per-reference scheduling cost: two 2M-reference streams round-robined at
// a 20k quantum. One interleaving pass feeds every cell of a mix shard, so
// this sits on the sweep hot path — it must stay allocation-free per
// reference (allocs/op pins it).
func BenchmarkMixInterleaver(b *testing.B) {
	streams := [][]tlbprefetch.Ref{
		benchTrace(b, "galgel", 2_000_000),
		benchTrace(b, "gcc", 2_000_000),
	}
	it := mixInterleaver(streams)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		_, _, vaddr, ok := it.Next()
		if !ok {
			b.StopTimer()
			it = mixInterleaver(streams)
			b.StartTimer()
			continue
		}
		sink ^= vaddr
	}
	benchSink = sink
}

// BenchmarkMixExec measures one mix cell end to end: the interleaver
// feeding a DP,256 Exec under the retain/flush-ASID point — the per-cell
// cost a mix shard pays on top of the shared interleaving pass.
func BenchmarkMixExec(b *testing.B) {
	streams := [][]tlbprefetch.Ref{
		benchTrace(b, "galgel", 2_000_000),
		benchTrace(b, "gcc", 2_000_000),
	}
	cfg := tlbprefetch.DefaultConfig()
	mk := func() tlbprefetch.Prefetcher { return tlbprefetch.NewDistance(256, 1, 2) }
	it := mixInterleaver(streams)
	e := multiprog.NewExec(cfg, multiprog.Retain, multiprog.ASIDFlush, len(streams), mk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc, pc, vaddr, ok := it.Next()
		if !ok {
			b.StopTimer()
			it = mixInterleaver(streams)
			e = multiprog.NewExec(cfg, multiprog.Retain, multiprog.ASIDFlush, len(streams), mk)
			b.StartTimer()
			continue
		}
		e.Ref(proc, pc, vaddr)
	}
}

// BenchmarkMixShard measures a whole mix shard: galgel+gcc at a 20k
// quantum, 150k references per process, feeding DP, RP and SBFP under
// every policy × ASID pair (18 cells). per-ref is the per-reference loop
// (Next, then Exec.Ref for each cell); shared is the runner's loop
// (NextRun into a multiprog.Group, whose cells of one ASID mode share one
// TLB). ns/ref is per interleaved reference, for all 18 cells together.
func BenchmarkMixShard(b *testing.B) {
	const perProc = 150_000
	streams := [][]tlbprefetch.Ref{
		benchTrace(b, "galgel", perProc),
		benchTrace(b, "gcc", perProc),
	}
	execs := func() []*multiprog.Exec {
		var out []*multiprog.Exec
		for _, mech := range []sweep.Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, {Kind: "RP"}, {Kind: "SBFP"}} {
			for _, pol := range []multiprog.Policy{multiprog.Retain, multiprog.Flush, multiprog.PerProcess} {
				for _, asid := range []multiprog.ASIDMode{multiprog.ASIDFlush, multiprog.ASIDTagged} {
					out = append(out, multiprog.NewExec(tlbprefetch.DefaultConfig(), pol, asid, len(streams), mech.Build))
				}
			}
		}
		return out
	}
	bench := func(b *testing.B, pass func(*multiprog.StreamInterleaver, []*multiprog.Exec)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			it, es := mixInterleaver(streams), execs()
			b.StartTimer()
			pass(it, es)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(streams)*perProc), "ns/ref")
	}
	b.Run("per-ref", func(b *testing.B) {
		bench(b, func(it *multiprog.StreamInterleaver, es []*multiprog.Exec) {
			for {
				proc, pc, vaddr, ok := it.Next()
				if !ok {
					return
				}
				for _, e := range es {
					e.Ref(proc, pc, vaddr)
				}
			}
		})
	})
	b.Run("shared", func(b *testing.B) {
		bench(b, func(it *multiprog.StreamInterleaver, es []*multiprog.Exec) {
			g := multiprog.NewGroup(es...)
			for {
				proc, run, ok := it.NextRun()
				if !ok {
					return
				}
				g.RefBatch(proc, run)
			}
		})
	})
}

var benchSink uint64

// --- Trace decode + replay benches -----------------------------------------

// writeBenchTrace writes refs to a temp file in the given encoding and
// returns its path.
func writeBenchTrace(b *testing.B, refs []tlbprefetch.Ref, format string) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench-"+format+".trc")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	var (
		tw     tlbprefetch.TraceWriter
		finish func() error
	)
	switch format {
	case "v1":
		x, err := tlbprefetch.NewBinaryTraceWriter(f)
		if err != nil {
			b.Fatal(err)
		}
		tw, finish = x, func() error { return x.FinishCount(f) }
	case "v2":
		x, err := tlbprefetch.NewBlockTraceWriter(f)
		if err != nil {
			b.Fatal(err)
		}
		tw, finish = x, func() error { return x.FinishCount(f) }
	default:
		b.Fatalf("unknown format %s", format)
	}
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := finish(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// benchDecode drains one full batched decode pass of the file and returns
// the records seen (for the ns/ref metric).
func benchDecode(b *testing.B, path string) uint64 {
	r, closer, err := tlbprefetch.OpenTraceFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer closer.Close()
	var (
		buf   [4096]tlbprefetch.Ref
		total uint64
		sink  uint64
	)
	for {
		n, err := r.ReadBatch(buf[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sink ^= buf[i].VAddr
		}
		total += uint64(n)
	}
	benchSink = sink
	return total
}

// BenchmarkTraceDecodeV1 measures batched decode of the fixed-width v1
// encoding: one full file pass per iteration, ns/ref reported.
func BenchmarkTraceDecodeV1(b *testing.B) {
	refs := benchTrace(b, "mcf", 2_000_000)
	path := writeBenchTrace(b, refs, "v1")
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		total += benchDecode(b, path)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/ref")
}

// BenchmarkTraceDecodeV2 measures batched decode of the block-structured
// delta-encoded v2 format over the identical record stream.
func BenchmarkTraceDecodeV2(b *testing.B) {
	refs := benchTrace(b, "mcf", 2_000_000)
	path := writeBenchTrace(b, refs, "v2")
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		total += benchDecode(b, path)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/ref")
}

// BenchmarkSimulatorTraceReplay measures the file-backed replay path a
// trace sweep cell pays — batched decode feeding the baseline
// (no-prefetcher) simulator, so the read path dominates and mechanism cost
// stays where BenchmarkSimulatorThroughput* measures it — for the v1 and
// v2 encodings. ns/ref is the wall cost per reference replayed end to end.
func BenchmarkSimulatorTraceReplay(b *testing.B) {
	refs := benchTrace(b, "swim", 2_000_000)
	run := func(b *testing.B, path string) {
		b.ReportAllocs()
		b.ResetTimer()
		var total uint64
		for i := 0; i < b.N; i++ {
			r, closer, err := tlbprefetch.OpenTraceFile(path)
			if err != nil {
				b.Fatal(err)
			}
			cfg := tlbprefetch.DefaultConfig()
			cfg.TLB.Ways = 4
			s := tlbprefetch.NewSimulator(cfg, nil)
			if err := s.RunBatch(r); err != nil {
				b.Fatal(err)
			}
			closer.Close()
			st := s.Stats()
			if st.Refs != uint64(len(refs)) {
				b.Fatalf("replayed %d refs, want %d", st.Refs, len(refs))
			}
			total += st.Refs
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/ref")
	}
	for _, format := range []string{"v1", "v2"} {
		path := writeBenchTrace(b, refs, format)
		b.Run(format+"-batched", func(b *testing.B) { run(b, path) })
	}
}
