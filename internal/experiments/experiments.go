// Package experiments regenerates every table and figure of the paper's
// evaluation (§3), plus the extension studies in ext.go and the
// design-space studies that go beyond the published tables (table3-lat,
// table3-space). It is shared by cmd/experiments (human-readable output)
// and bench_test.go (one testing.B benchmark per experiment); the figure
// experiments also render as report.Figure values (report.go in this
// package) for cmd/experiments -figure.
package experiments

import (
	"fmt"
	"slices"

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

// Validate reports whether the options name a run the harness can
// simulate: a positive reference budget, at least one prediction slot per
// row, and a pipeline geometry the simulator can model (see
// sim.Config.Validate).
func (o Options) Validate() error {
	if o.Refs == 0 {
		return fmt.Errorf("refs must be positive")
	}
	if o.Slots < 1 {
		return fmt.Errorf("slots must be positive, got %d", o.Slots)
	}
	return sim.Config{
		TLB:           tlb.Config{Entries: o.TLBEntries, Ways: o.TLBWays},
		BufferEntries: o.Buffer,
		PageShift:     o.PageShift,
	}.Validate()
}

// grid declares a panel of the workloads × mechanisms at the harness
// operating point: Options' TLB geometry, buffer, page size, reference
// budget and warmup, with Slots defaulting through Options.mech. Each
// experiment then widens the one axis it varies.
func (o Options) grid(ws []workload.Workload, mechs ...MechConfig) sweep.Grid {
	g := sweep.Grid{
		TLBEntries: []int{o.TLBEntries},
		TLBWays:    []int{o.TLBWays},
		Buffers:    []int{o.Buffer},
		PageShifts: []uint{o.PageShift},
		Refs:       o.Refs,
		Warmup:     o.WarmupRefs,
	}
	for _, w := range ws {
		g.Workloads = append(g.Workloads, w.Name)
	}
	for _, m := range mechs {
		g.Mechs = append(g.Mechs, o.mech(m))
	}
	return g
}

// MechConfig names one mechanism configuration (a bar in the paper's
// figures). It is a sweep.Mech whose Slots 0 means Options.Slots.
type MechConfig = sweep.Mech

// mech resolves the harness-level defaults (Slots from Options) into the
// fully-specified mechanism the sweep engine content-addresses.
func (o Options) mech(m MechConfig) sweep.Mech {
	if m.Slots == 0 {
		m.Slots = o.Slots
	}
	return m.Normalize()
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

// RunSuite evaluates a list of workloads by declaring the workload ×
// mechanism grid to the sweep engine: geometry-identical cells of one
// workload coalesce onto a shared sim.Group frontend, shards run across
// GOMAXPROCS workers, and — when Options.Store is set — cells already in
// the store are not re-simulated. Results keep the input order and are
// bit-identical to a serial run.
func RunSuite(ws []workload.Workload, opts Options, mechs []MechConfig) []AppResult {
	labels := make([]string, len(mechs))
	for i, m := range mechs {
		labels[i] = m.Label()
	}
	return appResults(ws, labels, runGrid(ws, opts, opts.grid(ws, mechs...), len(ws)*len(mechs)))
}

// appResults builds one AppResult per workload from a panel's results in
// Grid.Jobs order: each workload's cells are consecutive, one per label.
// The miss rate is the first cell's.
func appResults(ws []workload.Workload, labels []string, results []sweep.Result) []AppResult {
	out := make([]AppResult, len(ws))
	for i, w := range ws {
		res := AppResult{App: w.Name, Suite: w.Suite, Labels: slices.Clone(labels)}
		for _, r := range results[i*len(labels) : (i+1)*len(labels)] {
			res.Acc = append(res.Acc, r.Stats.Accuracy())
			res.Stats = append(res.Stats, r.Stats)
		}
		res.MissRate = res.Stats[0].MissRate()
		out[i] = res
	}
	return out
}

// axisLabels renders one label per value of a panel's varied axis.
func axisLabels[T any](format string, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// runGrid executes a panel with the harness conventions: workloads
// resolve from the slice the experiment was handed (so unregistered models
// work too), the store comes from Options, and failures — impossible for
// well-formed experiment declarations — panic. So does a grid that does
// not enumerate exactly cells distinct cells: a duplicate the grid drops
// would shift every later result onto the wrong label.
func runGrid(ws []workload.Workload, opts Options, g sweep.Grid, cells int) []sweep.Result {
	jobs, err := g.Jobs()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if len(jobs) != cells {
		panic(fmt.Sprintf("experiments: panel declares %d cells but its grid enumerates %d distinct ones", cells, len(jobs)))
	}
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
