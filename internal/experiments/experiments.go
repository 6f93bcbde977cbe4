// Package experiments regenerates every table and figure of the paper's
// evaluation (§3), plus the extension studies in ext.go and the
// design-space studies that go beyond the published tables (table3-lat,
// table3-space). It is shared by cmd/experiments (human-readable output)
// and bench_test.go (one testing.B benchmark per experiment); the figure
// experiments also render as report.Figure values (report.go in this
// package) for cmd/experiments -figure.
package experiments

import (
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/workload"
)

// Options scales and parameterizes the experiment runs.
type Options struct {
	// Refs is the number of references simulated per workload (the paper
	// simulates 1B instructions; the synthetic models are stationary, so
	// the default 1M references reaches steady state comfortably).
	Refs uint64
	// TLBEntries/TLBWays give the TLB geometry (paper default: 128-entry
	// fully associative; TLBWays 0 means fully associative).
	TLBEntries int
	TLBWays    int
	// Buffer is the prefetch buffer size b (paper default 16).
	Buffer int
	// PageShift is log2(page size) (paper default 12).
	PageShift uint
	// Slots is s, the predictions per row for MP/DP (paper default 2).
	Slots int
	// WarmupRefs references are simulated before the counters are reset,
	// mirroring the paper's 2-billion-instruction fast-forward: mechanisms
	// and TLB state stay warm, only the statistics restart. 0 disables.
	WarmupRefs uint64
	// Store, when non-nil, is the sweep result cache every experiment
	// reads from and writes to: cells already present (from an earlier
	// experiment or a previous run) are not re-simulated.
	Store *sweep.Store
	// Tally, when non-nil, accumulates how the experiments' sweep cells
	// were satisfied (cached vs freshly simulated) across every grid the
	// run declares — the cache-behaviour evidence cmd/experiments prints
	// and the docs smoke asserts.
	Tally *sweep.Summary
}

// DefaultOptions returns the paper's baseline configuration at the default
// simulation scale.
func DefaultOptions() Options {
	return Options{
		Refs:       1_000_000,
		TLBEntries: 128,
		TLBWays:    0,
		Buffer:     16,
		PageShift:  12,
		Slots:      2,
	}
}

// Validate reports whether the options name a pipeline geometry the
// simulator can model (see sim.Config.Validate).
func (o Options) Validate() error { return o.simConfig().Validate() }

func (o Options) simConfig() sim.Config {
	return sim.Config{
		TLB:           tlb.Config{Entries: o.TLBEntries, Ways: o.TLBWays},
		BufferEntries: o.Buffer,
		PageShift:     o.PageShift,
	}
}

// MechConfig names one mechanism configuration (a bar in the paper's
// figures).
type MechConfig struct {
	// Kind is a sweep registry kind (see sweep.Kinds).
	Kind string
	// Rows (r) and Ways apply to the table-based mechanisms; Ways 0 means
	// direct-mapped for ASP/MP/DP table sweeps is expressed as Ways 1, and
	// Ways == Rows as fully associative.
	Rows, Ways int
	// Slots is s for MP/DP-family mechanisms (0 = use Options.Slots).
	Slots int
}

// sweepMech resolves the harness-level defaults (Slots from Options) into
// the fully-specified mechanism the sweep engine content-addresses.
func (m MechConfig) sweepMech(opts Options) sweep.Mech {
	slots := m.Slots
	if slots == 0 {
		slots = opts.Slots
	}
	return sweep.Mech{Kind: m.Kind, Rows: m.Rows, Ways: m.Ways, Slots: slots}.Normalize()
}

// Label renders the paper's figure-legend naming, e.g. "DP,256,D".
func (m MechConfig) Label() string {
	return sweep.Mech{Kind: m.Kind, Rows: m.Rows, Ways: m.Ways}.Label()
}

// Build instantiates the mechanism.
func (m MechConfig) Build(opts Options) prefetch.Prefetcher {
	return m.sweepMech(opts).Build()
}

// AppResult is one application's row of a figure: the miss rate (of the
// unmodified TLB) plus accuracy per mechanism configuration.
type AppResult struct {
	App      string
	Suite    string
	MissRate float64
	Labels   []string
	Acc      []float64
	Stats    []sim.Stats
}

// Get returns the accuracy for a label (0, false if absent).
func (r AppResult) Get(label string) (float64, bool) {
	for i, l := range r.Labels {
		if l == label {
			return r.Acc[i], true
		}
	}
	return 0, false
}

// RunApp evaluates every mechanism configuration against one workload in a
// single pass over its (regenerated) reference stream.
func RunApp(w workload.Workload, opts Options, mechs []MechConfig) AppResult {
	return RunSuite([]workload.Workload{w}, opts, mechs)[0]
}

// RunSuite evaluates a list of workloads by declaring the workload ×
// mechanism grid to the sweep engine: geometry-identical cells of one
// workload coalesce onto a shared sim.Group frontend, shards run across
// GOMAXPROCS workers, and — when Options.Store is set — cells already in
// the store are not re-simulated. Results keep the input order and are
// bit-identical to a serial run.
func RunSuite(ws []workload.Workload, opts Options, mechs []MechConfig) []AppResult {
	jobs := make([]sweep.Job, 0, len(ws)*len(mechs))
	for _, w := range ws {
		for _, m := range mechs {
			jobs = append(jobs, sweep.Job{
				Source: sweep.WorkloadSource(w.Name),
				Mech:   m.sweepMech(opts),
				Config: opts.simConfig(),
				Refs:   opts.Refs,
				Warmup: opts.WarmupRefs,
			})
		}
	}
	results := runJobs(ws, opts, jobs)
	out := make([]AppResult, len(ws))
	for i, w := range ws {
		res := AppResult{App: w.Name, Suite: w.Suite}
		for j, m := range mechs {
			st := results[i*len(mechs)+j].Stats
			res.Labels = append(res.Labels, m.Label())
			res.Acc = append(res.Acc, st.Accuracy())
			res.Stats = append(res.Stats, st)
			if j == 0 {
				res.MissRate = st.MissRate()
			}
		}
		out[i] = res
	}
	return out
}

// runJobs executes sweep jobs with the harness conventions: workloads
// resolve from the slice the experiment was handed (so unregistered models
// work too), the store comes from Options, and failures — impossible for
// well-formed experiment declarations — panic, as the bespoke loops did.
func runJobs(ws []workload.Workload, opts Options, jobs []sweep.Job) []sweep.Result {
	byName := make(map[string]workload.Workload, len(ws))
	for _, w := range ws {
		byName[w.Name] = w
	}
	r := sweep.Runner{
		Store: opts.Store,
		Resolve: func(name string) (workload.Workload, bool) {
			if w, ok := byName[name]; ok {
				return w, true
			}
			return workload.ByName(name)
		},
	}
	results, sum, err := r.Run(jobs)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if opts.Tally != nil {
		opts.Tally.Total += sum.Total
		opts.Tally.Cached += sum.Cached
		opts.Tally.Ran += sum.Ran
		opts.Tally.Shards += sum.Shards
	}
	return results
}
