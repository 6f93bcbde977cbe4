package experiments

import (
	"slices"
	"strings"
	"testing"

	"tlbprefetch/internal/sim"
)

func TestFormatFigure(t *testing.T) {
	res := []AppResult{
		{App: "gzip", MissRate: 0.0123, Labels: []string{"RP", "DP,256,D"}, Acc: []float64{0.1, 0.9}},
		{App: "mcf", MissRate: 0.09, Labels: []string{"RP", "DP,256,D"}, Acc: []float64{0.95, 0.55}},
	}
	out := FormatFigure(res)
	for _, want := range []string{"gzip", "mcf", "0.012", "0.900", "DP,256,D"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if FormatFigure(nil) != "" {
		t.Error("empty results should render empty")
	}
}

func TestFormatTable2IncludesPaperColumns(t *testing.T) {
	r := Table2Result{Rows: []Table2Row{
		{Mechanism: "DP", Average: 0.6, WeightedAvg: 0.8},
		{Mechanism: "MP", Average: 0.07, WeightedAvg: 0.04},
	}}
	out := FormatTable2(r)
	for _, want := range []string{"paper avg", "0.43", "0.82", "0.60", "0.80"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatTable3IncludesPaperColumns(t *testing.T) {
	rows := []Table3Row{{
		App: "ammp", RPNormalized: 0.9, DPNormalized: 0.8,
		RPStats: sim.TimingStats{}, DPStats: sim.TimingStats{},
	}}
	out := FormatTable3(rows)
	for _, want := range []string{"ammp", "0.90", "0.80", "0.97", "0.86", "paper RP"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTable3SpaceFigure: Table3Space's rows, app by app over the same
// timing points, become one group per app and an RP and a DP series per
// point, in row order.
func TestTable3SpaceFigure(t *testing.T) {
	p50, p100 := sim.ScaledTiming(50).Timing, sim.ScaledTiming(100).Timing
	row := func(app string, tm sim.Timing, rp, dp float64) Table3LatencyRow {
		return Table3LatencyRow{Table3Row: Table3Row{App: app, RPNormalized: rp, DPNormalized: dp}, Timing: tm}
	}
	f := Table3SpaceFigure([]Table3LatencyRow{
		row("ammp", p50, 0.9, 0.8), row("ammp", p100, 0.7, 0.6),
		row("mcf", p50, 0.5, 0.4), row("mcf", p100, 0.3, 0.2),
	})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	series := "RP p=50 m=25 ipc=2|DP p=50 m=25 ipc=2|RP p=100 m=50 ipc=2|DP p=100 m=50 ipc=2"
	if got := strings.Join(f.Series, "|"); got != series {
		t.Errorf("series = %s, want %s", got, series)
	}
	want := map[string][]float64{"ammp": {0.9, 0.8, 0.7, 0.6}, "mcf": {0.5, 0.4, 0.3, 0.2}}
	if len(f.Groups) != len(want) {
		t.Fatalf("groups = %+v", f.Groups)
	}
	for _, g := range f.Groups {
		if !slices.Equal(g.Values, want[g.Label]) {
			t.Errorf("group %s = %v, want %v", g.Label, g.Values, want[g.Label])
		}
	}
}

func TestFormatFig9AllPanels(t *testing.T) {
	res := Fig9Result{
		TableGeometry: []AppResult{{App: "vpr", Labels: []string{"DP,256,D"}, Acc: []float64{0.7}}},
		SlotCount:     []AppResult{{App: "vpr", Labels: []string{"s=2"}, Acc: []float64{0.7}}},
		BufferSize:    []AppResult{{App: "vpr", Labels: []string{"b=16"}, Acc: []float64{0.7}}},
		TLBSize:       []AppResult{{App: "vpr", Labels: []string{"tlb=64"}, Acc: []float64{0.7}}},
	}
	out := FormatFig9(res)
	for _, want := range []string{"Figure 9a", "Figure 9b", "Figure 9c", "Figure 9d"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFormatExtHelpers(t *testing.T) {
	cache := FormatExtCache([]ExtCacheRow{{Workload: "cache-seq", DP: 1, ASP: 0.5, SP: 0.25}})
	if !strings.Contains(cache, "cache-seq") || !strings.Contains(cache, "1.000") {
		t.Errorf("cache table:\n%s", cache)
	}
	ps := FormatExtPageSize([]ExtPageSizeRow{{App: "vpr", Acc4K: 0.7, Acc8K: 0.71, Acc16K: 0.75}})
	if !strings.Contains(ps, "vpr") || !strings.Contains(ps, "16KB") {
		t.Errorf("pagesize table:\n%s", ps)
	}
}

func TestBuildPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mechanism kind accepted")
		}
	}()
	DefaultOptions().mech(MechConfig{Kind: "XX"}).Build()
}
