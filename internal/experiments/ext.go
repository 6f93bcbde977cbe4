package experiments

import (
	"fmt"

	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/report"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/tlb"
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

// FormatExtDPVariants renders the variant comparison.
func FormatExtDPVariants(results []AppResult) string {
	return FormatFigure(results)
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
// one generation pass, and Options.Store caches them.
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
	// A 32 KiB 4-way cache of 64-byte blocks is the Figure 1 pipeline at
	// block granularity: 512 four-way "TLB" entries holding block numbers.
	cfg := sim.Config{TLB: tlb.Config{Entries: 512, Ways: 4}, BufferEntries: 16, PageShift: 6}
	mechs := []MechConfig{{Kind: "DP", Rows: 256, Ways: 1}, {Kind: "ASP", Rows: 256, Ways: 1}, {Kind: "SP"}}
	out := make([]ExtCacheRow, len(cacheWls))
	for i, w := range cacheWls {
		out[i].Workload = w.Name
	}
	refs := opts.Refs / 4
	if refs == 0 {
		return out // nothing to simulate: all-zero rows
	}
	var jobs []sweep.Job
	for _, w := range cacheWls {
		for _, m := range mechs {
			jobs = append(jobs, sweep.Job{
				Source: sweep.WorkloadSource(w.Name),
				Mech:   m.sweepMech(opts),
				Config: cfg,
				Refs:   refs,
			})
		}
	}
	results := runJobs(cacheWls, opts, jobs)
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
// cell for cell. Mix cells carry no warmup axis; Options.WarmupRefs is
// ignored here.
func ExtMultiprog(opts Options) []ExtMultiprogRow {
	jobs := make([]sweep.Job, 0, 9)
	for _, quantum := range []uint64{5_000, 20_000, 100_000} {
		for _, pol := range []multiprog.Policy{multiprog.Retain, multiprog.Flush, multiprog.PerProcess} {
			jobs = append(jobs, sweep.Job{
				Mix: &sweep.Mix{
					Sources: []sweep.Source{sweep.WorkloadSource("galgel"), sweep.WorkloadSource("gcc")},
					Quantum: quantum,
					Policy:  pol.String(),
					ASID:    multiprog.ASIDFlush.String(),
				},
				Mech:   MechConfig{Kind: "DP", Rows: 256, Ways: 1}.sweepMech(opts),
				Config: opts.simConfig(),
				Refs:   opts.Refs,
			})
		}
	}
	results := runJobs(nil, opts, jobs)
	out := make([]ExtMultiprogRow, len(results))
	for i, r := range results {
		st := r.Stats
		row := ExtMultiprogRow{
			Quantum:  jobs[i].Mix.Quantum,
			Policy:   jobs[i].Mix.Policy,
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
// different TLB configurations".
func ExtTLBAssoc(opts Options) []AppResult {
	return runPanelVaryingSim(fig9Workloads(), opts, []panelVariant{
		{label: "2-way", mutate: func(o *Options) { o.TLBWays = 2 }},
		{label: "4-way", mutate: func(o *Options) { o.TLBWays = 4 }},
		{label: "full", mutate: func(o *Options) { o.TLBWays = 0 }},
	})
}

// FormatExtTLBAssoc renders the associativity sweep.
func FormatExtTLBAssoc(rows []AppResult) string {
	return FormatFigure(rows)
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
	dp := MechConfig{Kind: "DP", Rows: 256, Ways: 1}
	shifts := []uint{12, 13, 14}
	jobs := make([]sweep.Job, 0, len(apps)*len(shifts))
	for _, w := range apps {
		for _, shift := range shifts {
			o := opts
			o.PageShift = shift
			jobs = append(jobs, sweep.Job{
				Source: sweep.WorkloadSource(w.Name),
				Mech:   dp.sweepMech(o),
				Config: o.simConfig(),
				Refs:   o.Refs,
				Warmup: o.WarmupRefs,
			})
		}
	}
	results := runJobs(apps, opts, jobs)
	var out []ExtPageSizeRow
	for i, w := range apps {
		row := ExtPageSizeRow{App: w.Name}
		row.Acc4K = results[i*len(shifts)+0].Stats.Accuracy()
		row.Acc8K = results[i*len(shifts)+1].Stats.Accuracy()
		row.Acc16K = results[i*len(shifts)+2].Stats.Accuracy()
		out = append(out, row)
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

// FormatExtModern renders the comparison as the standard accuracy panel.
func FormatExtModern(results []AppResult) string {
	return FormatFigure(results)
}

// ExtModernFigure arranges the comparison as a grouped-bar report figure
// (one group per application, one series per mechanism).
func ExtModernFigure(results []AppResult) *report.Figure {
	return FigureFromApps("Extension F: 2002 mechanisms vs modern successors", results)
}
