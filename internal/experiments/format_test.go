package experiments

import (
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
