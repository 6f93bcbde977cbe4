package experiments

import (
	"strings"

	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/workload"
)

// Fig7Configs returns the mechanism configurations of Figures 7 and 8: RP;
// MP with r in {256,512,1024} and D/4/2/F indexing (the subset the paper
// plots); DP direct-mapped with r in {32..1024}; ASP with r in {32..1024}.
func Fig7Configs() []MechConfig {
	cfgs := []MechConfig{{Kind: "RP"}}
	cfgs = append(cfgs,
		MechConfig{Kind: "MP", Rows: 1024, Ways: 1},
		MechConfig{Kind: "MP", Rows: 1024, Ways: 4},
		MechConfig{Kind: "MP", Rows: 1024, Ways: 2},
		MechConfig{Kind: "MP", Rows: 512, Ways: 1},
		MechConfig{Kind: "MP", Rows: 512, Ways: 4},
		MechConfig{Kind: "MP", Rows: 256, Ways: 1},
		MechConfig{Kind: "MP", Rows: 256, Ways: 4},
		MechConfig{Kind: "MP", Rows: 256, Ways: 256},
	)
	for _, r := range []int{1024, 512, 256, 128, 64, 32} {
		cfgs = append(cfgs, MechConfig{Kind: "DP", Rows: r, Ways: 1})
	}
	for _, r := range []int{1024, 512, 256, 128, 64, 32} {
		cfgs = append(cfgs, MechConfig{Kind: "ASP", Rows: r, Ways: 1})
	}
	return cfgs
}

// Fig7 reproduces Figure 7: prediction accuracy of all mechanisms for the
// 26 SPEC CPU2000 applications.
func Fig7(opts Options) []AppResult {
	return RunSuite(workload.Suite("SPEC"), opts, Fig7Configs())
}

// Fig8 reproduces Figure 8: the same comparison for MediaBench, Etch and
// the Pointer-Intensive suite.
func Fig8(opts Options) []AppResult {
	ws := append([]workload.Workload{}, workload.Suite("MediaBench")...)
	ws = append(ws, workload.Suite("Etch")...)
	ws = append(ws, workload.Suite("PointerIntensive")...)
	return RunSuite(ws, opts, Fig7Configs())
}

// FormatFigure renders per-app accuracy bars as an aligned text table.
func FormatFigure(results []AppResult) string {
	if len(results) == 0 {
		return ""
	}
	header := append([]string{"app", "missrate"}, results[0].Labels...)
	t := stats.NewTable(header...)
	for _, r := range results {
		row := []string{r.App, stats.F(r.MissRate)}
		for _, a := range r.Acc {
			row = append(row, stats.F(a))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Fig9AppNames lists the eight applications with the highest d-TLB miss
// rates, which the paper's sensitivity analysis (Figure 9) and Table 3 use.
func Fig9AppNames() []string {
	return []string{"vpr", "mcf", "twolf", "galgel", "ammp", "lucas", "apsi", "adpcm-enc"}
}

func fig9Workloads() []workload.Workload {
	var out []workload.Workload
	for _, name := range Fig9AppNames() {
		w, ok := workload.ByName(name)
		if !ok {
			panic("experiments: missing fig9 workload " + name)
		}
		out = append(out, w)
	}
	return out
}

// Fig9 holds the four sensitivity panels of Figure 9.
type Fig9Result struct {
	TableGeometry []AppResult // panel a: DP vs r and associativity
	SlotCount     []AppResult // panel b: DP vs s in {2,4,6}
	BufferSize    []AppResult // panel c: DP vs b in {16,32,64}
	TLBSize       []AppResult // panel d: DP vs TLB entries in {64,128,256}
}

// Fig9 reproduces the DP sensitivity analysis of Figure 9.
func Fig9(opts Options) Fig9Result {
	apps := fig9Workloads()
	var res Fig9Result

	// Panel a: table size and associativity (the paper's bar set).
	var geom []MechConfig
	for _, rc := range []struct{ r, w int }{
		{1024, 1}, {1024, 4}, {1024, 2},
		{512, 1}, {512, 4},
		{256, 1}, {256, 4}, {256, 256},
		{128, 1}, {128, 128},
		{64, 1}, {64, 64},
		{32, 1}, {32, 32},
	} {
		geom = append(geom, MechConfig{Kind: "DP", Rows: rc.r, Ways: rc.w})
	}
	res.TableGeometry = RunSuite(apps, opts, geom)

	// Panel b: prediction slots per row.
	slots := []int{2, 4, 6}
	var slotCfg []MechConfig
	for _, s := range slots {
		slotCfg = append(slotCfg, MechConfig{Kind: "DP", Rows: 256, Ways: 1, Slots: s})
	}
	res.SlotCount = appResults(apps, axisLabels("s=%d", slots),
		runGrid(apps, opts, opts.grid(apps, slotCfg...), len(apps)*len(slots)))

	// Panels c and d vary the simulator around DP,256,D: the buffer sizes
	// share one frontend per workload, the TLB sizes shard apart.
	dp := MechConfig{Kind: "DP", Rows: 256, Ways: 1}
	g := opts.grid(apps, dp)
	g.Buffers = []int{16, 32, 64}
	res.BufferSize = appResults(apps, axisLabels("b=%d", g.Buffers),
		runGrid(apps, opts, g, len(apps)*len(g.Buffers)))

	g = opts.grid(apps, dp)
	g.TLBEntries = []int{64, 128, 256}
	res.TLBSize = appResults(apps, axisLabels("tlb=%d", g.TLBEntries),
		runGrid(apps, opts, g, len(apps)*len(g.TLBEntries)))
	return res
}

// FormatFig9 renders the four panels.
func FormatFig9(r Fig9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9a: DP prediction accuracy vs table size/associativity\n")
	b.WriteString(FormatFigure(r.TableGeometry))
	b.WriteString("\nFigure 9b: DP vs prediction slots per row (r=256, direct-mapped)\n")
	b.WriteString(FormatFigure(r.SlotCount))
	b.WriteString("\nFigure 9c: DP vs prefetch buffer size\n")
	b.WriteString(FormatFigure(r.BufferSize))
	b.WriteString("\nFigure 9d: DP vs TLB size\n")
	b.WriteString(FormatFigure(r.TLBSize))
	return b.String()
}
