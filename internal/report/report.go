// Package report renders paper-style figures from sweep results: grouped
// bars per application, mechanisms (or whatever else varies across the
// selected cells) as series. It is the figure-level half of the store's
// emitter story — where sweep.Table renders a flat row per cell, report
// arranges a store subset the way the paper's Figures 7-9 arrange theirs,
// and emits it as aligned text, CSV shaped for plotting tools, or a
// self-contained SVG.
//
// The package is deliberately two-layered:
//
//   - Build consumes a store subset (typically sweep.Filter.Select output)
//     and derives the figure automatically: groups are the sources
//     (applications), series are labeled from exactly the Key fields that
//     vary across the subset, and the plotted quantity is one of the
//     registered Metrics.
//   - Figure itself is a plain value, so harnesses that already hold
//     derived numbers (normalized cycles, panel labels in paper order) can
//     construct one directly and reuse the renderers.
//
// Render is the one place a command's format name picks a renderer: csv,
// svg (one stacked document for any number of figures) or the text view.
//
// Every renderer is a pure function of the Figure value: the same subset
// always produces byte-identical text, CSV and SVG, regardless of worker
// count, map order or platform.
package report

import (
	"fmt"
	"strings"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
)

// Figure is one grouped-bar figure: for every group (application), one bar
// per series (mechanism/configuration), all plotting the same metric.
type Figure struct {
	// Title is the caption printed above the chart.
	Title string
	// Axis labels the plotted quantity, e.g. "prediction accuracy".
	Axis string
	// Series are the bar labels within each group, in plot order.
	Series []string
	// Groups are the bar groups, in plot order.
	Groups []Group
}

// Group is one bar group: a label (application name) plus one value per
// figure series.
type Group struct {
	// Label names the group, e.g. the application.
	Label string
	// Values holds one bar height per figure series, indexed like
	// Figure.Series.
	Values []float64
	// Present marks which series have a value in this group; a nil Present
	// means all of them. Absent bars render as gaps ("-" in text, empty CSV
	// cells, no rect in SVG).
	Present []bool
}

// value returns the group's bar for series i and whether it exists, treating
// out-of-range and not-Present entries uniformly as absent.
func (g Group) value(i int) (float64, bool) {
	if i >= len(g.Values) {
		return 0, false
	}
	if g.Present != nil && (i >= len(g.Present) || !g.Present[i]) {
		return 0, false
	}
	return g.Values[i], true
}

// Validate reports whether the figure is renderable: at least one series and
// one group, and no group wider than the series list.
func (f *Figure) Validate() error {
	if len(f.Series) == 0 {
		return fmt.Errorf("report: figure %q has no series", f.Title)
	}
	if len(f.Groups) == 0 {
		return fmt.Errorf("report: figure %q has no groups", f.Title)
	}
	for _, g := range f.Groups {
		if len(g.Values) > len(f.Series) {
			return fmt.Errorf("report: figure %q group %q has %d values for %d series",
				f.Title, g.Label, len(g.Values), len(f.Series))
		}
		if g.Present != nil && len(g.Present) != len(g.Values) {
			return fmt.Errorf("report: figure %q group %q has %d present flags for %d values",
				f.Title, g.Label, len(g.Present), len(g.Values))
		}
	}
	return nil
}

// Render renders figs in one output format: "csv" concatenates their CSV
// tables, "svg" stacks them into one SVGDocument, and any other format
// concatenates their text views.
func Render(format string, figs ...*Figure) string {
	render := (*Figure).Text
	switch format {
	case "svg":
		return SVGDocument(figs...)
	case "csv":
		render = (*Figure).CSV
	}
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(render(f))
	}
	return b.String()
}

// maxValue returns the largest present value (0 when none are).
func (f *Figure) maxValue() float64 {
	max := 0.0
	for _, g := range f.Groups {
		for i := range f.Series {
			if v, ok := g.value(i); ok && v > max {
				max = v
			}
		}
	}
	return max
}

// Options parameterizes Build.
type Options struct {
	// Metric names the plotted quantity (see Metrics). Empty means
	// "accuracy".
	Metric string
	// Title overrides the derived "<axis> by application" caption.
	Title string
}

// Build derives a figure from a store subset. Groups are the distinct
// sources in first-appearance order (pass sweep.Filter.Select output for
// the stable source-sorted order); series are labeled from exactly the Key
// fields that vary across the subset, so a mechanism comparison labels
// bars "DP,256,D" / "RP" while a buffer sweep labels them "b=16" / "b=32"
// without the caller naming either axis. Cells the metric cannot be read
// from (a cycle-model metric on functional cells) render as gaps; Build
// fails only when the metric is readable from no cell at all.
func Build(results []sweep.Result, opts Options) (*Figure, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("report: no cells to render")
	}
	name := opts.Metric
	if name == "" {
		name = "accuracy"
	}
	m, ok := MetricByName(name)
	if !ok {
		return nil, fmt.Errorf("report: unknown metric %q (known: %s)", name, MetricNames())
	}

	labels := seriesLabels(results)
	f := &Figure{Title: opts.Title, Axis: m.Axis}
	if f.Title == "" {
		f.Title = m.Axis + " by application"
	}
	seriesIdx := make(map[string]int)
	groupIdx := make(map[string]int)
	readable := false
	for i, r := range results {
		si, ok := seriesIdx[labels[i]]
		if !ok {
			si = len(f.Series)
			seriesIdx[labels[i]] = si
			f.Series = append(f.Series, labels[i])
		}
		gl := r.Key.SourceLabel()
		gi, ok := groupIdx[gl]
		if !ok {
			gi = len(f.Groups)
			groupIdx[gl] = gi
			f.Groups = append(f.Groups, Group{Label: gl})
		}
		g := &f.Groups[gi]
		for len(g.Values) <= si {
			g.Values = append(g.Values, 0)
			g.Present = append(g.Present, false)
		}
		if g.Present[si] {
			return nil, fmt.Errorf("report: cells %q/%q collide — the varying key fields do not distinguish them", gl, labels[i])
		}
		v, ok := m.Value(r)
		g.Values[si], g.Present[si] = v, ok
		readable = readable || ok
	}
	if !readable {
		return nil, fmt.Errorf("report: metric %q is not derivable from any selected cell (it needs cycle-model cells — sweep with -timing or a -miss-penalty axis)", m.Name)
	}
	// Groups discovered late may be narrower than the series list; pad so
	// every group indexes uniformly.
	for gi := range f.Groups {
		g := &f.Groups[gi]
		for len(g.Values) < len(f.Series) {
			g.Values = append(g.Values, 0)
			g.Present = append(g.Present, false)
		}
	}
	return f, nil
}

// facet is one Key field that can contribute to a series label: render
// produces the label fragment (empty when the field does not apply to the
// cell, e.g. a timing constant on a functional cell).
type facet struct {
	name   string
	render func(k sweep.Key) string
}

// seriesFacets lists the label-contributing Key fields in label order. The
// mechanism renders as its bare paper legend ("DP,256,D"); every other
// field carries a short name= prefix so mixed labels stay readable.
var seriesFacets = []facet{
	{"mech", func(k sweep.Key) string { return k.Mech.Label() }},
	{"policy", mixFacet(func(m sweep.Mix) string { return m.Policy })},
	{"quantum", mixFacet(func(m sweep.Mix) string { return fmt.Sprintf("q=%d", m.Quantum) })},
	{"asid", mixFacet(func(m sweep.Mix) string { return "asid=" + m.ASID })},
	{"tlb", func(k sweep.Key) string { return fmt.Sprintf("tlb=%d", k.TLBEntries) }},
	{"tlbways", func(k sweep.Key) string {
		if k.TLBWays == 0 {
			return "tlbways=FA"
		}
		return fmt.Sprintf("tlbways=%d", k.TLBWays)
	}},
	{"buffer", func(k sweep.Key) string { return fmt.Sprintf("b=%d", k.Buffer) }},
	{"pageshift", func(k sweep.Key) string { return fmt.Sprintf("ps=%d", k.PageShift) }},
	{"refs", func(k sweep.Key) string { return fmt.Sprintf("refs=%d", k.Refs) }},
	{"warmup", func(k sweep.Key) string { return fmt.Sprintf("warmup=%d", k.Warmup) }},
	{"seed", func(k sweep.Key) string { return fmt.Sprintf("seed=%d", k.Seed) }},
	{"model", func(k sweep.Key) string {
		if k.Timing == nil {
			return "functional"
		}
		return "cycle"
	}},
	{"penalty", timingFacet(func(t sim.Timing) string { return fmt.Sprintf("p=%d", t.MissPenalty) })},
	{"memop", timingFacet(func(t sim.Timing) string { return fmt.Sprintf("m=%d", t.MemOpLatency) })},
	{"occ", timingFacet(func(t sim.Timing) string { return fmt.Sprintf("occ=%d", t.MemOpOccupancy) })},
	{"bufferhit", timingFacet(func(t sim.Timing) string { return fmt.Sprintf("bhp=%d", t.BufferHitPenalty) })},
	{"cyclesperref", timingFacet(func(t sim.Timing) string { return fmt.Sprintf("cpr=%d", t.CyclesPerRef) })},
	{"refspercycle", timingFacet(func(t sim.Timing) string { return fmt.Sprintf("ipc=%d", t.RefsPerCycle) })},
	{"rpskip", timingFacet(func(t sim.Timing) string {
		if t.RPSkipWhenBusy {
			return "rpskip=on"
		}
		return "rpskip=off"
	})},
}

// mixFacet lifts a Mix renderer into a Key facet that is empty for
// single-source cells, so the scheduler axes (policy as the paper would
// legend it, quantum, ASID mode) only label mix figures.
func mixFacet(render func(sweep.Mix) string) func(sweep.Key) string {
	return func(k sweep.Key) string {
		if k.Mix == nil {
			return ""
		}
		return render(*k.Mix)
	}
}

// timingFacet lifts a Timing renderer into a Key facet that is empty for
// functional cells (a nil/non-nil mix is already distinguished by the
// "model" facet).
func timingFacet(render func(sim.Timing) string) func(sweep.Key) string {
	return func(k sweep.Key) string {
		if k.Timing == nil {
			return ""
		}
		return render(*k.Timing)
	}
}

// seriesLabels derives one label per result from exactly the facets whose
// rendered value varies across the subset — minus facets another kept facet
// already determines (the buffer-hit penalty scales with the miss penalty
// and the channel occupancy with the memory-op cost, so printing them would
// only bloat every label without distinguishing anything). When nothing
// varies (one configuration per application), every cell falls back to the
// mechanism label.
func seriesLabels(results []sweep.Result) []string {
	rendered := make([][]string, len(seriesFacets))
	varying := make([]bool, len(seriesFacets))
	for fi, fc := range seriesFacets {
		vals := make([]string, len(results))
		for ri, r := range results {
			vals[ri] = fc.render(r.Key)
		}
		rendered[fi] = vals
		for _, v := range vals[1:] {
			if v != vals[0] {
				varying[fi] = true
				break
			}
		}
	}
	// Greedily keep varying facets that split cells the kept ones do not:
	// classes holds each cell's kept-facet tuple, and a facet constant
	// within every class is determined by them. Dropping it cannot merge
	// labels, since equal kept tuples imply an equal dropped value.
	var kept []int
	classes := make([]string, len(results))
	for fi := range seriesFacets {
		if !varying[fi] {
			continue
		}
		determined := true
		seen := make(map[string]string)
		for ri := range results {
			v, ok := seen[classes[ri]]
			if !ok {
				seen[classes[ri]] = rendered[fi][ri]
			} else if v != rendered[fi][ri] {
				determined = false
				break
			}
		}
		if determined {
			continue
		}
		kept = append(kept, fi)
		for ri := range results {
			classes[ri] += "\x00" + rendered[fi][ri]
		}
	}
	labels := make([]string, len(results))
	for ri := range results {
		var parts []string
		for _, fi := range kept {
			if rendered[fi][ri] != "" {
				parts = append(parts, rendered[fi][ri])
			}
		}
		if len(parts) == 0 {
			labels[ri] = results[ri].Key.Mech.Label()
		} else {
			labels[ri] = strings.Join(parts, " ")
		}
	}
	return labels
}
