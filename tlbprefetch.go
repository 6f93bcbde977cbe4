// Package tlbprefetch is a library for studying TLB prefetching, built as a
// full reproduction of Kandiraju & Sivasubramaniam, "Going the Distance for
// TLB Prefetching: An Application-driven Study" (ISCA 2002).
//
// The package provides:
//
//   - the five prefetching mechanisms of the paper — tagged Sequential
//     Prefetching (SP), Arbitrary Stride Prefetching (ASP, the Chen-Baer
//     reference prediction table), Markov Prefetching (MP), Recency-based
//     Prefetching (RP, Saulsbury et al.) and the paper's contribution,
//     Distance Prefetching (DP) — all behind one Prefetcher interface,
//     plus three published successors for head-to-head comparison:
//     temporal memory streaming (STMS), multi-stride ASP (MASP) and
//     sampling-based free prefetching (SBFP). Every mechanism is named and
//     built one way, as a Mech (Kinds lists them); a custom mechanism
//     implements Prefetcher directly;
//   - a functional TLB + prefetch-buffer simulator measuring the paper's
//     prediction-accuracy metric, and a timing simulator implementing the
//     paper's Table 3 cycle model;
//   - the 56 synthetic application models standing in for the paper's
//     SPEC CPU2000 / MediaBench / Etch / Pointer-Intensive workloads;
//   - three trace formats for driving the simulator from recorded
//     reference streams: fixed-width binary (v1), delta-encoded blocks
//     (v2) and one record per line of text.
//
// # Quick start
//
//	cfg := tlbprefetch.DefaultConfig() // 128-entry FA TLB, 16-entry buffer, 4K pages
//	pf := tlbprefetch.Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}.Build()
//	w, _ := tlbprefetch.WorkloadByName("swim")
//	st := tlbprefetch.RunWorkload(cfg, pf, w, 1_000_000)
//	fmt.Printf("accuracy %.3f\n", st.Accuracy())
//
// Everything here is a thin facade over the internal packages; the
// experiment harness that regenerates the paper's tables and figures lives
// in cmd/experiments.
package tlbprefetch

import (
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// Ref is one memory reference: the program counter of the instruction and
// the data virtual address it touches.
type Ref = trace.Ref

// TraceWriter consumes a stream of references.
type TraceWriter = trace.Writer

// TraceBatchReader yields references in caller-owned chunks; see
// trace.BatchReader for the contract. Every trace reader, and a workload's
// Stream, implements it.
type TraceBatchReader = trace.BatchReader

// Prefetcher is a TLB prefetching mechanism: it observes the TLB miss
// stream and proposes pages to load into the prefetch buffer.
type Prefetcher = prefetch.Prefetcher

// Event describes one TLB miss as seen by a Prefetcher.
type Event = prefetch.Event

// Action is a Prefetcher's response to a miss.
type Action = prefetch.Action

// TLBConfig describes a TLB geometry.
type TLBConfig = tlb.Config

// Config parameterizes a functional simulation.
type Config = sim.Config

// TimingConfig parameterizes a timing simulation: a Config plus the cycle
// model's Timing constants (paper Table 3 model).
type TimingConfig = sim.TimingConfig

// Timing holds the cycle model's constants.
type Timing = sim.Timing

// Stats are the functional counters of a run; Stats.Accuracy is the paper's
// prediction-accuracy metric.
type Stats = sim.Stats

// TimingStats extend Stats with cycle accounting.
type TimingStats = sim.TimingStats

// Simulator is the functional TLB + prefetch-buffer pipeline.
type Simulator = sim.Simulator

// TimingSimulator adds the cycle model.
type TimingSimulator = sim.TimingSimulator

// Group fans one reference stream out to many simulators of one TLB
// geometry and page size: it probes one canonical TLB per reference and
// fans out only the misses (the shared frontend the experiment harness
// rides). Adding a member of another geometry, a used member, or any
// member after the first RefBatch panics.
type Group = sim.Group

// Workload is a named synthetic application model.
type Workload = workload.Workload

// DefaultConfig returns the paper's baseline: 128-entry fully associative
// TLB, 16-entry prefetch buffer, 4 KB pages.
func DefaultConfig() Config { return sim.Default() }

// DefaultTimingConfig returns the paper's Table 3 cycle model on top of the
// baseline configuration.
func DefaultTimingConfig() TimingConfig { return sim.DefaultTiming() }

// NewSimulator builds a functional simulator around a mechanism (nil means
// no prefetching — the baseline).
func NewSimulator(cfg Config, pf Prefetcher) *Simulator { return sim.New(cfg, pf) }

// NewTimingSimulator builds a timing simulator around a mechanism.
func NewTimingSimulator(cfg TimingConfig, pf Prefetcher) *TimingSimulator {
	return sim.NewTiming(cfg, pf)
}

// NewGroup builds a fan-out over the given simulators. Members built around
// the same Prefetcher instance (the same pointer) share its predictions: its
// OnMiss runs once per miss, with the first such member's Event, and every
// such member issues that answer. Share an instance only if its OnMiss
// ignores Event.BufferHit (the adaptive and the untagged sequential
// prefetchers read it); otherwise give each member its own.
func NewGroup(members ...*Simulator) *Group { return sim.NewGroup(members...) }

// Mech names and builds a prefetching mechanism: Kind is a registry name
// (see Kinds), Rows/Ways size the table of the table-based kinds and Slots
// is s, the predictions per row. Validate checks a configuration built
// from user input; Build instantiates it (the "none" baseline builds nil).
// The paper's recommended operating point for its contribution is
// Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, and even 32 rows work
// well.
type Mech = sweep.Mech

// Kinds returns every mechanism kind Mech can build, in registry order:
// the no-prefetching baseline, the paper's five mechanisms (SP, ASP, MP,
// RP, DP) with their variants (adaptive SP-A, three-entry RP3, and DP
// indexed by PC+distance, DP-PC, or by two distances, DP2), and the
// modern successors (STMS, MASP, SBFP).
func Kinds() []string { return sweep.Kinds() }

// Workloads returns all 56 application models, sorted by suite then name.
func Workloads() []Workload { return workload.All() }

// WorkloadsBySuite returns one suite ("SPEC", "MediaBench", "Etch",
// "PointerIntensive") in paper-figure order.
func WorkloadsBySuite(suite string) []Workload { return workload.Suite(suite) }

// WorkloadByName looks up an application model by its benchmark name.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// GenerateWorkload streams refs references of a workload into a trace
// writer.
func GenerateWorkload(w Workload, refs uint64, dst TraceWriter) (uint64, error) {
	return workload.GenerateTo(w, refs, dst)
}

// RunWorkload simulates refs references of a workload against a mechanism
// and returns the functional statistics.
func RunWorkload(cfg Config, pf Prefetcher, w Workload, refs uint64) Stats {
	s := sim.New(cfg, pf)
	_ = s.RunBatch(workload.NewStream(w, refs)) // a workload stream never fails
	return s.Stats()
}

// RunWorkloadTimed simulates refs references under the cycle model and
// returns the timing statistics.
func RunWorkloadTimed(cfg TimingConfig, pf Prefetcher, w Workload, refs uint64) TimingStats {
	s := sim.NewTiming(cfg, pf)
	_ = s.RunBatch(workload.NewStream(w, refs)) // a workload stream never fails
	return s.Stats()
}

// NewBinaryTraceWriter / NewBinaryTraceReader expose the fixed-width v1
// trace file format (16 bytes per record after a 16-byte header);
// NewBlockTraceWriter writes the v2 block format (delta + varint encoded,
// typically 2-6 bytes per record, batched decode); NewTextTraceWriter the
// one-line-per-record text format. OpenTraceFile reads all three,
// detecting text, v1 and v2 from the file's leading bytes. Every reader is
// a TraceBatchReader.
var (
	NewBinaryTraceWriter = trace.NewBinaryWriter
	NewBinaryTraceReader = trace.NewBinaryReader
	NewBlockTraceWriter  = trace.NewBlockWriter
	NewTextTraceWriter   = trace.NewTextWriter
	OpenTraceFile        = trace.OpenFile
	DigestTraceFile      = trace.DigestFile
	// CopyTrace pumps a batch reader into a writer until EOF, returning the
	// number of records copied — the lossless conversion primitive.
	CopyTrace = trace.CopyBatch
)
