package report

import (
	"strings"

	"tlbprefetch/internal/sweep"
)

// Metric is one plottable quantity of a sweep cell. Value extracts it and
// reports whether the cell carries it at all — cycle-model metrics are not
// derivable from functional cells, and those bars render as gaps rather
// than zeros.
type Metric struct {
	// Name is the selector used by Build and the CLIs, e.g. "missrate".
	Name string
	// Axis is the human axis label, e.g. "TLB miss rate".
	Axis string
	// Value extracts the metric (false when this cell does not carry it).
	Value func(r sweep.Result) (float64, bool)
}

// Metrics lists every registered metric in presentation order: the paper's
// headline prediction accuracy first, then the functional rates, then the
// cycle-model quantities of the Table 3 studies.
var Metrics = []Metric{
	{
		Name: "accuracy",
		Axis: "prediction accuracy",
		Value: func(r sweep.Result) (float64, bool) {
			return r.Stats.Accuracy(), true
		},
	},
	{
		Name: "missrate",
		Axis: "TLB miss rate",
		Value: func(r sweep.Result) (float64, bool) {
			return r.Stats.MissRate(), true
		},
	},
	{
		Name: "coverage",
		Axis: "useful fraction of issued prefetches",
		Value: func(r sweep.Result) (float64, bool) {
			if r.Stats.PrefetchesIssued == 0 {
				return 0, true
			}
			used := r.Stats.PrefetchesIssued - r.Stats.PrefetchesUnused
			return float64(used) / float64(r.Stats.PrefetchesIssued), true
		},
	},
	{
		Name: "stallcycles",
		Axis: "TLB stall cycles per reference",
		Value: func(r sweep.Result) (float64, bool) {
			if r.Timing == nil || r.Timing.Refs == 0 {
				return 0, r.Timing != nil
			}
			return float64(r.Timing.StallCycles) / float64(r.Timing.Refs), true
		},
	},
	{
		Name: "cpi",
		Axis: "cycles per reference",
		Value: func(r sweep.Result) (float64, bool) {
			if r.Timing == nil {
				return 0, false
			}
			return r.Timing.CPI(), true
		},
	},
}

// MetricByName resolves a metric selector (case-insensitive).
func MetricByName(name string) (Metric, bool) {
	for _, m := range Metrics {
		if strings.EqualFold(m.Name, name) {
			return m, true
		}
	}
	return Metric{}, false
}

// MetricNames renders the registered selectors for CLI help and error text.
func MetricNames() string {
	names := make([]string, len(Metrics))
	for i, m := range Metrics {
		names[i] = m.Name
	}
	return strings.Join(names, ", ")
}
