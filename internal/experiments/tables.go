package experiments

import (
	"fmt"
	"strings"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

// Table1 renders the paper's Table 1 — the qualitative hardware comparison
// — from each mechanism's self-reported HardwareInfo, so the table can
// never drift from the implementations.
func Table1(opts Options) string {
	describers := []prefetch.HardwareDescriber{
		opts.mech(MechConfig{Kind: "ASP", Rows: 256, Ways: 1}).Build().(prefetch.HardwareDescriber),
		opts.mech(MechConfig{Kind: "MP", Rows: 256, Ways: 1}).Build().(prefetch.HardwareDescriber),
		opts.mech(MechConfig{Kind: "RP"}).Build().(prefetch.HardwareDescriber),
		opts.mech(MechConfig{Kind: "DP", Rows: 256, Ways: 1}).Build().(prefetch.HardwareDescriber),
	}
	t := stats.NewTable("question", "ASP", "MP", "RP", "DP")
	infos := make([]prefetch.HardwareInfo, len(describers))
	for i, d := range describers {
		infos[i] = d.HardwareInfo()
	}
	row := func(q string, get func(prefetch.HardwareInfo) string) {
		cells := []string{q}
		for _, hi := range infos {
			cells = append(cells, get(hi))
		}
		t.AddRow(cells...)
	}
	row("How many rows?", func(h prefetch.HardwareInfo) string { return h.Rows })
	row("What are the contents of a row?", func(h prefetch.HardwareInfo) string { return h.RowContents })
	row("Where is the table?", func(h prefetch.HardwareInfo) string { return h.TableLocation })
	row("How is the table indexed?", func(h prefetch.HardwareInfo) string { return h.IndexedBy })
	row("Memory ops per miss (excl. prefetches)?", func(h prefetch.HardwareInfo) string { return h.StateMemOps })
	row("How many prefetches can be initiated?", func(h prefetch.HardwareInfo) string { return h.MaxPrefetches })
	return t.String()
}

// Table2Row is one mechanism's averages over all 56 applications.
type Table2Row struct {
	Mechanism    string
	Average      float64 // (Σ p_i)/n
	WeightedAvg  float64 // Σ(m_i·p_i)/Σ(m_i)
	PerApp       []float64
	PerAppMiss   []float64
	PerAppLabels []string
}

// Table2Result reproduces the paper's Table 2 (s=2, r=256 for DP, MP, ASP).
type Table2Result struct {
	Rows []Table2Row
}

// Table2 runs all 56 applications against the four headline mechanisms at
// the paper's Table 2 operating point.
func Table2(opts Options) Table2Result {
	mechs := []MechConfig{
		{Kind: "DP", Rows: 256, Ways: 1},
		{Kind: "RP"},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "MP", Rows: 256, Ways: 1},
	}
	results := RunSuite(workload.All(), opts, mechs)
	out := Table2Result{}
	for mi, m := range mechs {
		row := Table2Row{Mechanism: m.Kind}
		var accs, rates []float64
		for _, r := range results {
			accs = append(accs, r.Acc[mi])
			rates = append(rates, r.MissRate)
			row.PerAppLabels = append(row.PerAppLabels, r.App)
		}
		row.PerApp = accs
		row.PerAppMiss = rates
		row.Average = stats.Mean(accs)
		row.WeightedAvg = stats.WeightedMean(accs, rates)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// FormatTable2 renders Table 2 alongside the paper's published values.
func FormatTable2(r Table2Result) string {
	paper := map[string][2]float64{
		"DP":  {0.43, 0.82},
		"RP":  {0.29, 0.86},
		"ASP": {0.28, 0.73},
		"MP":  {0.11, 0.04},
	}
	t := stats.NewTable("scheme", "average", "weighted avg", "paper avg", "paper wavg")
	for _, row := range r.Rows {
		p := paper[row.Mechanism]
		t.AddRow(row.Mechanism, stats.F2(row.Average), stats.F2(row.WeightedAvg),
			stats.F2(p[0]), stats.F2(p[1]))
	}
	return t.String()
}

// Table3AppNames lists the five applications of the paper's Table 3 — the
// ones where RP's accuracy beats DP's, making the cycle comparison the
// interesting one.
func Table3AppNames() []string {
	return []string{"ammp", "mcf", "vpr", "twolf", "lucas"}
}

// Table3Row is one application's normalized execution cycles.
type Table3Row struct {
	App            string
	BaselineCycles uint64
	RPCycles       uint64
	DPCycles       uint64
	RPNormalized   float64
	DPNormalized   float64
	RPStats        sim.TimingStats
	DPStats        sim.TimingStats
}

// Table3 reproduces the execution-cycle comparison: RP vs DP (s=2, r=256)
// normalized to no prefetching, under the paper's timing model (100-cycle
// TLB miss penalty, 50-cycle prefetch memory operations contending only
// with each other, RP's skip-when-busy rule). It is the default point of
// the design space Table3Space sweeps: the one-point timing axis {100}
// (sim.ScaledTiming(100) is sweep.DefaultTiming), five apps, three
// mechanisms, every cell rendered from the sweep store.
func Table3(opts Options) []Table3Row {
	rows, err := Table3Space(opts, sweep.TimingAxes{MissPenalties: []uint64{100}})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	out := make([]Table3Row, len(rows))
	for i, r := range rows {
		out[i] = r.Table3Row
	}
	return out
}

// Table3LatencyRow is one (application, timing point) cell group of the
// Table 3 design space.
type Table3LatencyRow struct {
	Table3Row
	Timing sim.Timing
}

// DefaultLatencyAxis is the miss-penalty sensitivity axis of the
// table3-lat experiment: the paper's 100-cycle point bracketed by a
// faster and two slower memory systems. Each point is ScaledTiming at its
// penalty, so the costs that are fractions of a page-table walk scale
// with it — the prefetch memory-op cost at the paper's 1:2 ratio, and the
// buffer-hit residual (fill + pipeline restart, 65% of the walk at the
// default point) in proportion, so a successful prefetch never models as
// costlier than the miss it avoids.
func DefaultLatencyAxis() sweep.TimingAxes {
	return sweep.TimingAxes{MissPenalties: []uint64{50, 100, 200, 400}}
}

// DefaultTable3SpaceAxes declares the table3-space design space: the
// latency axis bracketing the paper's 100-cycle point, the memory-op cost
// decoupled from the paper's fixed 2:1 penalty:memop ratio (0.25 models an
// aggressive prefetch path, 1.0 a memory system where a prefetch op costs
// a full walk), and both a serialized and the paper's 2-wide issue core.
func DefaultTable3SpaceAxes() sweep.TimingAxes {
	return sweep.TimingAxes{
		MissPenalties: []uint64{50, 100, 200, 400},
		MemOpRatios:   []float64{0.25, 0.5, 1},
		RefsPerCycle:  []uint64{1, 2},
	}
}

// Table3Space generalizes Table 3 into a design-space study: the
// (5 apps) × (baseline, RP, DP) grid crossed with every point of the
// timing axes — the miss-penalty axis of table3-lat, or the decoupled
// (MissPenalty × memop ratio × RefsPerCycle) axes of table3-space. Each
// app's cells share a generation pass in the sweep shard, and every cell
// is content-addressed, so the default Table 3 point is shared with
// table3/table3-lat through the store and a re-render, or an axis extended
// later, only simulates cells the store lacks. Rows come app by app, each
// app's in TimingAxes.Points order. The cells run with warmup 0
// (Options.WarmupRefs is ignored): the cycle model has no statistics
// fast-forward. The axes must declare at least one axis (the zero value is
// the functional simulator); axes whose points do not expand return the
// expansion error.
func Table3Space(opts Options, axes sweep.TimingAxes) ([]Table3LatencyRow, error) {
	pts, err := axes.Points()
	if err != nil {
		return nil, err
	}
	apps := make([]workload.Workload, 0, len(Table3AppNames()))
	for _, name := range Table3AppNames() {
		w, ok := workload.ByName(name)
		if !ok {
			panic("experiments: missing table3 workload " + name)
		}
		apps = append(apps, w)
	}
	mechs := []MechConfig{{Kind: "none"}, {Kind: "RP"}, {Kind: "DP", Rows: 256, Ways: 1}}
	g := opts.grid(apps, mechs...)
	g.Warmup = 0
	g.TimingAxes = axes
	results := runGrid(apps, opts, g, len(apps)*len(mechs)*len(pts))
	// Grid.Jobs orders a panel's cells app, then mechanism, then point.
	cell := func(app, mech, pt int) sim.TimingStats {
		return *results[(app*len(mechs)+mech)*len(pts)+pt].Timing
	}
	var out []Table3LatencyRow
	for i, w := range apps {
		for pi, tm := range pts {
			bs, rs, ds := cell(i, 0, pi), cell(i, 1, pi), cell(i, 2, pi)
			row := Table3LatencyRow{
				Table3Row: Table3Row{
					App:            w.Name,
					BaselineCycles: bs.Cycles,
					RPCycles:       rs.Cycles,
					DPCycles:       ds.Cycles,
					RPStats:        rs,
					DPStats:        ds,
				},
				Timing: tm,
			}
			if bs.Cycles > 0 {
				row.RPNormalized = float64(rs.Cycles) / float64(bs.Cycles)
				row.DPNormalized = float64(ds.Cycles) / float64(bs.Cycles)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatTable3Space renders the design-space grid flat, one row per
// (application, timing point).
func FormatTable3Space(rows []Table3LatencyRow) string {
	t := stats.NewTable("app", "penalty", "memop", "ipc", "RP", "DP", "base cycles")
	for _, r := range rows {
		t.AddRow(r.App,
			fmt.Sprintf("%d", r.Timing.MissPenalty),
			fmt.Sprintf("%d", r.Timing.MemOpLatency),
			fmt.Sprintf("%d", r.Timing.RefsPerCycle),
			stats.F2(r.RPNormalized), stats.F2(r.DPNormalized),
			fmt.Sprintf("%d", r.BaselineCycles))
	}
	var b strings.Builder
	b.WriteString("Table 3 design space: normalized cycles vs (penalty × memop × issue width)\n")
	b.WriteString(t.String())
	return b.String()
}

// FormatTable3Latency renders the sensitivity grid, one row per
// (application, miss penalty).
func FormatTable3Latency(rows []Table3LatencyRow) string {
	t := stats.NewTable("app", "penalty", "memop", "RP", "DP", "base cycles")
	for _, r := range rows {
		t.AddRow(r.App,
			fmt.Sprintf("%d", r.Timing.MissPenalty),
			fmt.Sprintf("%d", r.Timing.MemOpLatency),
			stats.F2(r.RPNormalized), stats.F2(r.DPNormalized),
			fmt.Sprintf("%d", r.BaselineCycles))
	}
	var b strings.Builder
	b.WriteString("Table 3 (extended): normalized cycles vs TLB miss penalty\n")
	b.WriteString(t.String())
	return b.String()
}

// FormatTable3 renders Table 3 alongside the paper's published values.
func FormatTable3(rows []Table3Row) string {
	paper := map[string][2]float64{
		"ammp":  {0.97, 0.86},
		"mcf":   {1.09, 0.95},
		"vpr":   {0.99, 0.98},
		"twolf": {0.98, 0.98},
		"lucas": {1.00, 0.99},
	}
	t := stats.NewTable("app", "RP", "DP", "paper RP", "paper DP",
		"RP acc", "DP acc", "RP memops", "DP memops")
	for _, r := range rows {
		p := paper[r.App]
		t.AddRow(r.App,
			stats.F2(r.RPNormalized), stats.F2(r.DPNormalized),
			stats.F2(p[0]), stats.F2(p[1]),
			stats.F(r.RPStats.Accuracy()), stats.F(r.DPStats.Accuracy()),
			fmt.Sprintf("%d", r.RPStats.MemOps()), fmt.Sprintf("%d", r.DPStats.MemOps()))
	}
	var b strings.Builder
	b.WriteString("Table 3: normalized execution cycles w.r.t. no prefetching\n")
	b.WriteString(t.String())
	return b.String()
}
