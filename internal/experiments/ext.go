package experiments

import (
	"fmt"

	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
	"tlbprefetch/internal/xrand"
)

// --- Extension A: DP indexing variants -------------------------------------

// ExtDPVariants runs the paper's §4 future-work indexing variants —
// PC⊕distance and two-consecutive-distances — against plain DP on the
// eight high-miss-rate applications.
func ExtDPVariants(opts Options) []AppResult {
	mechs := []MechConfig{
		{Kind: "DP", Rows: 256, Ways: 1},
		{Kind: "DP-PC", Rows: 256, Ways: 1},
		{Kind: "DP2", Rows: 256, Ways: 1},
		{Kind: "DP", Rows: 1024, Ways: 1},
		{Kind: "DP-PC", Rows: 1024, Ways: 1},
		{Kind: "DP2", Rows: 1024, Ways: 1},
	}
	return RunSuite(fig9Workloads(), opts, mechs)
}

// --- Extension B: DP at the cache level -------------------------------------

// ExtCacheRow is one workload's cache-level comparison.
type ExtCacheRow struct {
	Workload string
	MissRate float64
	DP       float64
	ASP      float64
	SP       float64
}

// ExtCache drives a 32 KiB / 64 B-block / 4-way cache with DP, ASP and SP
// prefetching into a 16-entry buffer, over cache-grained versions of three
// behaviour classes. Block distances play the role page distances play in
// the TLB: the mechanism is unchanged. The cells run through the sweep
// engine like every other artifact's: a workload's three mechanisms share
// one generation pass, and Options.Store caches them. The cells run with
// warmup 0 (Options.WarmupRefs is ignored): the cache-grained streams
// take a quarter of Options.Refs as their whole budget.
func ExtCache(opts Options) []ExtCacheRow {
	// Streams are written at cache-block granularity (64-byte steps), the
	// unit the cache-level DP predictor works in.
	const block = 64
	cacheWls := []workload.Workload{
		cacheWorkload("cache-seq", 0xC101, func() []workload.Phase {
			// Fresh sequential block stream with 4 touches per block.
			next := uint64(1 << 30)
			return []workload.Phase{workload.PhaseFunc(func(emit workload.EmitFunc, _ *xrand.Rand) bool {
				for i := 0; i < 4096; i++ {
					for j := 0; j < 4; j++ {
						if !emit(0x900000, next+uint64(j*8)) {
							return false
						}
					}
					next += block
				}
				return true
			})}
		}),
		cacheWorkload("cache-motif", 0xC102, func() []workload.Phase {
			// A fixed block-offset motif applied to fresh block groups —
			// the TLB-level class (d) behaviour, one level down.
			motif := []int64{0, 2, 5, 1, 4}
			next := uint64(1 << 30)
			return []workload.Phase{workload.PhaseFunc(func(emit workload.EmitFunc, _ *xrand.Rand) bool {
				for g := 0; g < 512; g++ {
					for _, d := range motif {
						addr := next + uint64(d*block)
						if !emit(0x910000, addr) {
							return false
						}
					}
					next += 6 * block
				}
				return true
			})}
		}),
		cacheWorkload("cache-chase", 0xC103, func() []workload.Phase {
			// A fixed shuffled visit order over 2048 blocks, repeated.
			var order []uint32
			return []workload.Phase{workload.PhaseFunc(func(emit workload.EmitFunc, r *xrand.Rand) bool {
				if order == nil {
					for _, v := range r.Perm(2048) {
						order = append(order, uint32(v))
					}
				}
				for _, idx := range order {
					if !emit(0x920000, 1<<30+uint64(idx)*block) {
						return false
					}
				}
				return true
			})}
		}),
	}
	mechs := []MechConfig{{Kind: "DP", Rows: 256, Ways: 1}, {Kind: "ASP", Rows: 256, Ways: 1}, {Kind: "SP"}}
	out := make([]ExtCacheRow, len(cacheWls))
	for i, w := range cacheWls {
		out[i].Workload = w.Name
	}
	refs := opts.Refs / 4
	if refs == 0 {
		return out // nothing to simulate: all-zero rows
	}
	// A 32 KiB 4-way cache of 64-byte blocks is the Figure 1 pipeline at
	// block granularity: 512 four-way "TLB" entries holding block numbers.
	g := opts.grid(cacheWls, mechs...)
	g.TLBEntries, g.TLBWays, g.Buffers, g.PageShifts = []int{512}, []int{4}, []int{16}, []uint{6}
	g.Refs, g.Warmup = refs, 0
	results := runGrid(cacheWls, opts, g, len(cacheWls)*len(mechs))
	for i := range out {
		n := len(mechs) * i
		dp, asp, sp := results[n].Stats, results[n+1].Stats, results[n+2].Stats
		out[i].MissRate = dp.MissRate()
		out[i].DP, out[i].ASP, out[i].SP = dp.Accuracy(), asp.Accuracy(), sp.Accuracy()
	}
	return out
}

// cacheWorkload wraps a phase builder as a workload. The generators emit
// page-granular addresses; at cache granularity each "page" unit simply
// spans 64 blocks, which is exactly the scale shift the extension studies.
func cacheWorkload(name string, seed uint64, build func() []workload.Phase) workload.Workload {
	return workload.Workload{Name: name, Suite: "cache", Seed: seed, Build: build}
}

// FormatExtCache renders the cache-level rows.
func FormatExtCache(rows []ExtCacheRow) string {
	t := stats.NewTable("workload", "missrate", "DP", "ASP", "SP")
	for _, r := range rows {
		t.AddRow(r.Workload, stats.F(r.MissRate), stats.F(r.DP), stats.F(r.ASP), stats.F(r.SP))
	}
	return t.String()
}

// --- Extension C: multiprogramming ------------------------------------------

// ExtMultiprogRow is one (quantum, policy) cell. Coverage is buffer hits /
// TLB misses (the metric the paper calls prediction accuracy); Accuracy is
// used / issued prefetches.
type ExtMultiprogRow struct {
	Quantum  uint64
	Policy   string
	Coverage float64
	Accuracy float64
	Misses   uint64
}

// ExtMultiprog co-schedules galgel (strided) with gcc (history) and sweeps
// the context-switch quantum under the three table policies, declared as a
// mix grid to the sweep engine — so an Options.Store caches the cells like
// any other experiment, and the rows match a tlbsweep -mix galgel+gcc run
// cell for cell. Mix cells carry no warmup axis: they run with warmup 0
// and Options.WarmupRefs is ignored here.
func ExtMultiprog(opts Options) []ExtMultiprogRow {
	g := opts.grid(nil, MechConfig{Kind: "DP", Rows: 256, Ways: 1})
	g.Warmup = 0
	g.Mixes = []sweep.Mix{{Sources: []sweep.Source{sweep.WorkloadSource("galgel"), sweep.WorkloadSource("gcc")}}}
	g.Quanta = []uint64{5_000, 20_000, 100_000}
	g.Policies = []string{multiprog.Retain.String(), multiprog.Flush.String(), multiprog.PerProcess.String()}
	g.ASIDs = []string{multiprog.ASIDFlush.String()}
	results := runGrid(nil, opts, g, len(g.Quanta)*len(g.Policies))
	out := make([]ExtMultiprogRow, len(results))
	for i, r := range results {
		st := r.Stats
		row := ExtMultiprogRow{
			Quantum:  r.Key.Mix.Quantum,
			Policy:   r.Key.Mix.Policy,
			Coverage: st.Accuracy(),
			Misses:   st.Misses,
		}
		if st.PrefetchesIssued > 0 {
			row.Accuracy = float64(st.PrefetchesIssued-st.PrefetchesUnused) / float64(st.PrefetchesIssued)
		}
		out[i] = row
	}
	return out
}

// FormatExtMultiprog renders the policy sweep.
func FormatExtMultiprog(rows []ExtMultiprogRow) string {
	t := stats.NewTable("quantum", "policy", "DP coverage", "accuracy", "misses")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Quantum), r.Policy,
			stats.F(r.Coverage), stats.F(r.Accuracy), fmt.Sprintf("%d", r.Misses))
	}
	return t.String()
}

// --- Extension E: TLB associativity -----------------------------------------

// ExtTLBAssoc re-runs DP,256,D on the eight high-miss applications with the
// TLB organized 2-way, 4-way and fully associative (the configurations the
// paper's §3.1 sweeps): "DP is able to make good predictions across
// different TLB configurations". A set-associative organization that does
// not exist at opts.TLBEntries (the entries do not divide into its ways) or
// that is the fully associative one (as many ways as entries) is left out.
func ExtTLBAssoc(opts Options) []AppResult {
	apps := fig9Workloads()
	g := opts.grid(apps, MechConfig{Kind: "DP", Rows: 256, Ways: 1})
	g.TLBWays = nil
	for _, ways := range []int{2, 4} {
		if ways < opts.TLBEntries && opts.TLBEntries%ways == 0 {
			g.TLBWays = append(g.TLBWays, ways)
		}
	}
	g.TLBWays = append(g.TLBWays, 0)
	labels := axisLabels("%d-way", g.TLBWays)
	labels[len(labels)-1] = "full"
	return appResults(apps, labels, runGrid(apps, opts, g, len(apps)*len(g.TLBWays)))
}

// --- Extension D: page size --------------------------------------------------

// ExtPageSizeRow is one application's DP accuracy across page sizes.
type ExtPageSizeRow struct {
	App    string
	Acc4K  float64
	Acc8K  float64
	Acc16K float64
}

// ExtPageSize re-runs DP,256,D on the eight high-miss applications at 4, 8
// and 16 KB pages (the paper's companion TR studies page-size sensitivity;
// the published conclusion — "DP is able to make good predictions across
// different TLB configurations and page sizes" — is the shape to check).
func ExtPageSize(opts Options) []ExtPageSizeRow {
	apps := fig9Workloads()
	g := opts.grid(apps, MechConfig{Kind: "DP", Rows: 256, Ways: 1})
	g.PageShifts = []uint{12, 13, 14}
	results := runGrid(apps, opts, g, len(apps)*len(g.PageShifts))
	out := make([]ExtPageSizeRow, len(apps))
	for i, w := range apps {
		r := results[i*len(g.PageShifts):]
		out[i] = ExtPageSizeRow{App: w.Name, Acc4K: r[0].Stats.Accuracy(), Acc8K: r[1].Stats.Accuracy(), Acc16K: r[2].Stats.Accuracy()}
	}
	return out
}

// FormatExtPageSize renders the page-size sweep.
func FormatExtPageSize(rows []ExtPageSizeRow) string {
	t := stats.NewTable("app", "4KB", "8KB", "16KB")
	for _, r := range rows {
		t.AddRow(r.App, stats.F(r.Acc4K), stats.F(r.Acc8K), stats.F(r.Acc16K))
	}
	return t.String()
}

// --- Extension F: 2002 vs modern mechanisms ---------------------------------

// extModernMechs is the head-to-head lineup: the paper's five mechanisms at
// their recommended operating points against three published successors —
// temporal memory streaming (STMS, after Wenisch et al., HPCA 2009),
// multi-stride ASP (MASP) and sampling-based free prefetching (SBFP, both
// after Vavouliotis et al., ISCA 2021) — at matching table budgets.
func extModernMechs() []MechConfig {
	return []MechConfig{
		{Kind: "SP"},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "MP", Rows: 256, Ways: 1},
		{Kind: "RP"},
		{Kind: "DP", Rows: 256, Ways: 1},
		// STMS keeps its history off-chip, so its GHB is orders of
		// magnitude larger than the on-chip tables: at 256 entries every
		// index hit is stale (miss-stream recurrence distances exceed the
		// ring) and it predicts nothing.
		{Kind: "STMS", Rows: 16384, Ways: 1},
		{Kind: "MASP", Rows: 256, Ways: 1},
		{Kind: "SBFP"},
	}
}

// ExtModern runs the 2002-vs-modern comparison on the eight
// high-miss-rate applications of Figure 9.
func ExtModern(opts Options) []AppResult {
	return RunSuite(fig9Workloads(), opts, extModernMechs())
}
