package experiments

import (
	"fmt"

	"tlbprefetch/internal/report"
)

// FigureFromApps arranges a per-application panel (Fig7/Fig8/Fig9 output)
// as a report figure: groups in the harness's application order, series in
// the panel's own label order — the paper's presentation order, which the
// auto-derived labels of report.Build would re-sort. Every AppResult is
// expected to carry the panel's uniform label set, as RunSuite produces.
func FigureFromApps(title string, apps []AppResult) *report.Figure {
	f := &report.Figure{Title: title, Axis: "prediction accuracy"}
	if len(apps) > 0 {
		f.Series = apps[0].Labels
	}
	for _, a := range apps {
		f.Groups = append(f.Groups, report.Group{Label: a.App, Values: a.Acc})
	}
	return f
}

// Fig9Figures renders the four sensitivity panels of Figure 9 as report
// figures, ready for report.SVGDocument (one multi-panel SVG) or
// panel-by-panel text/CSV output.
func Fig9Figures(r Fig9Result) []*report.Figure {
	return []*report.Figure{
		FigureFromApps("Figure 9a: DP accuracy vs table size/associativity", r.TableGeometry),
		FigureFromApps("Figure 9b: DP accuracy vs prediction slots per row", r.SlotCount),
		FigureFromApps("Figure 9c: DP accuracy vs prefetch buffer size", r.BufferSize),
		FigureFromApps("Figure 9d: DP accuracy vs TLB size", r.TLBSize),
	}
}

// Table3SpaceFigure arranges the design-space study as a report figure:
// applications as groups, one series per (mechanism, miss penalty,
// memory-op cost, issue width) point, plotting execution cycles normalized
// to the no-prefetching baseline at the same timing point (below 1.0 means
// prefetching helped). rows come as Table3Space returns them: app by app,
// every app over the same timing points in the same order, so the first
// app's rows name the series.
func Table3SpaceFigure(rows []Table3LatencyRow) *report.Figure {
	f := &report.Figure{
		Title: "Table 3 design space: normalized cycles vs (penalty × memop × issue width)",
		Axis:  "cycles normalized to no prefetching",
	}
	for _, r := range rows {
		if len(f.Groups) == 0 || f.Groups[len(f.Groups)-1].Label != r.App {
			f.Groups = append(f.Groups, report.Group{Label: r.App})
		}
		g := &f.Groups[len(f.Groups)-1]
		if len(f.Groups) == 1 {
			point := fmt.Sprintf("p=%d m=%d ipc=%d", r.Timing.MissPenalty, r.Timing.MemOpLatency, r.Timing.RefsPerCycle)
			f.Series = append(f.Series, "RP "+point, "DP "+point)
		}
		g.Values = append(g.Values, r.RPNormalized, r.DPNormalized)
	}
	return f
}
