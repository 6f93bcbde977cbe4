package report

import (
	"strings"
	"testing"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/tlb"
)

// cell builds a functional result for (workload, mech) with the given
// accuracy shape, applying mutations to the job before keying.
func cell(workload string, mech sweep.Mech, hits, misses uint64, mut ...func(*sweep.Job)) sweep.Result {
	j := sweep.Job{
		Source: sweep.WorkloadSource(workload),
		Mech:   mech,
		Config: sim.Config{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 12},
		Refs:   1000,
	}
	for _, m := range mut {
		m(&j)
	}
	return sweep.Result{
		Key:   j.Key(),
		Stats: sim.Stats{Refs: j.Refs, Misses: misses, BufferHits: hits},
	}
}

// timingCell builds a cycle-model result at the given timing point.
func timingCell(workload string, mech sweep.Mech, tm sim.Timing, cycles, stall uint64) sweep.Result {
	j := sweep.Job{
		Source: sweep.WorkloadSource(workload),
		Mech:   mech,
		Config: sim.Config{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 12},
		Refs:   1000,
		Timing: &tm,
	}
	st := sim.TimingStats{Stats: sim.Stats{Refs: j.Refs, Misses: 100, BufferHits: 50}, Cycles: cycles, StallCycles: stall}
	return sweep.Result{Key: j.Key(), Stats: st.Stats, Timing: &st}
}

var (
	dp = sweep.Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}
	rp = sweep.Mech{Kind: "RP"}
)

func TestBuildMechSeries(t *testing.T) {
	results := []sweep.Result{
		cell("mcf", dp, 81, 100),
		cell("mcf", rp, 58, 100),
		cell("swim", dp, 97, 100),
		cell("swim", rp, 60, 100),
	}
	f, err := Build(results, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"DP,256,D", "RP"}; strings.Join(f.Series, "|") != strings.Join(want, "|") {
		t.Errorf("series = %v, want %v", f.Series, want)
	}
	if len(f.Groups) != 2 || f.Groups[0].Label != "mcf" || f.Groups[1].Label != "swim" {
		t.Errorf("groups = %+v", f.Groups)
	}
	if got := f.Groups[0].Values[0]; got != 0.81 {
		t.Errorf("mcf DP accuracy = %v, want 0.81", got)
	}
	if f.Title != "prediction accuracy by application" {
		t.Errorf("title = %q", f.Title)
	}
}

func TestBuildNonMechSeriesLabels(t *testing.T) {
	// Only the buffer size varies: labels must be b=16/b=32, not the
	// constant mechanism label.
	results := []sweep.Result{
		cell("mcf", dp, 70, 100),
		cell("mcf", dp, 75, 100, func(j *sweep.Job) { j.Config.BufferEntries = 32 }),
	}
	f, err := Build(results, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "b=16|b=32"; strings.Join(f.Series, "|") != want {
		t.Errorf("series = %v, want %s", f.Series, want)
	}
}

func TestBuildPrunesCoVaryingFacets(t *testing.T) {
	// BufferHitPenalty and MemOpOccupancy are functions of the penalty in
	// ScaledTiming points, so the labels must carry only p=.
	results := []sweep.Result{
		timingCell("mcf", dp, sim.ScaledTiming(100).Timing, 5000, 800),
		timingCell("mcf", dp, sim.ScaledTiming(200).Timing, 9000, 1600),
	}
	f, err := Build(results, Options{Metric: "cpi"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "p=100|p=200"; strings.Join(f.Series, "|") != want {
		t.Errorf("series = %v, want %s", f.Series, want)
	}
}

func TestBuildMixedModelLabels(t *testing.T) {
	// A functional/cycle mix is distinguished by the model facet; the
	// timing constants it implies must not leak into the labels.
	results := []sweep.Result{
		cell("mcf", dp, 70, 100),
		timingCell("mcf", dp, sim.ScaledTiming(100).Timing, 5000, 800),
	}
	f, err := Build(results, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "functional|cycle"; strings.Join(f.Series, "|") != want {
		t.Errorf("series = %v, want %s", f.Series, want)
	}
}

func TestBuildTimingMetricGaps(t *testing.T) {
	// cpi over a functional/cycle mix: the functional cell renders as a
	// gap, not an error and not a zero bar.
	results := []sweep.Result{
		cell("mcf", dp, 70, 100),
		timingCell("mcf", dp, sim.ScaledTiming(100).Timing, 5000, 800),
	}
	f, err := Build(results, Options{Metric: "cpi"})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Groups[0].value(0); ok {
		t.Errorf("functional cell should be absent under cpi, got %v", v)
	}
	if v, ok := f.Groups[0].value(1); !ok || v != 5.0 {
		t.Errorf("cycle cell cpi = %v/%v, want 5.0", v, ok)
	}
}

func TestBuildTimingMetricAllFunctionalFails(t *testing.T) {
	results := []sweep.Result{cell("mcf", dp, 70, 100)}
	if _, err := Build(results, Options{Metric: "stallcycles"}); err == nil {
		t.Fatal("stallcycles over functional cells should fail")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty subset should fail")
	}
	if _, err := Build([]sweep.Result{cell("mcf", dp, 1, 2)}, Options{Metric: "nope"}); err == nil {
		t.Error("unknown metric should fail")
	}
	// Slots is no series facet, so two DP cells that differ only there
	// would share one bar.
	dp3 := dp
	dp3.Slots = 3
	if _, err := Build([]sweep.Result{cell("mcf", dp, 1, 2), cell("mcf", dp3, 1, 2)}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "collide") {
		t.Errorf("cells differing only in slots: err = %v, want a collision", err)
	}
}

func TestMetricByName(t *testing.T) {
	if m, ok := MetricByName("ACCURACY"); !ok || m.Name != "accuracy" {
		t.Errorf("case-insensitive lookup failed: %v %v", m, ok)
	}
	if _, ok := MetricByName("bogus"); ok {
		t.Error("bogus metric resolved")
	}
	for _, m := range Metrics {
		if !strings.Contains(MetricNames(), m.Name) {
			t.Errorf("MetricNames misses %s", m.Name)
		}
	}
}

func TestCoverageMetric(t *testing.T) {
	m, _ := MetricByName("coverage")
	r := cell("mcf", dp, 50, 100)
	r.Stats.PrefetchesIssued = 200
	r.Stats.PrefetchesUnused = 150
	if v, ok := m.Value(r); !ok || v != 0.25 {
		t.Errorf("coverage = %v/%v, want 0.25", v, ok)
	}
	r.Stats.PrefetchesIssued = 0
	if v, ok := m.Value(r); !ok || v != 0 {
		t.Errorf("coverage with nothing issued = %v/%v, want 0", v, ok)
	}
}

func TestCSVQuotesCommaSeries(t *testing.T) {
	f := &Figure{
		Axis:   "prediction accuracy",
		Series: []string{"DP,256,D"},
		Groups: []Group{{Label: "mcf", Values: []float64{0.5}}},
	}
	out := f.CSV()
	if !strings.Contains(out, `"DP,256,D"`) {
		t.Errorf("comma series not quoted:\n%s", out)
	}
	if !strings.Contains(out, "mcf,0.5") {
		t.Errorf("value row missing:\n%s", out)
	}
}

// TestRender: each format name picks the matching renderer, over every
// figure passed; an unknown name is the text view.
func TestRender(t *testing.T) {
	a := &Figure{Title: "a", Axis: "x", Series: []string{"DP,256,D", "RP"},
		Groups: []Group{{Label: "mcf", Values: []float64{0.5, 0.25}}}}
	b := &Figure{Title: "b", Axis: "y", Series: []string{"s"},
		Groups: []Group{{Label: "swim", Values: []float64{1}}}}
	for format, want := range map[string]string{
		"csv":   a.CSV() + b.CSV(),
		"svg":   SVGDocument(a, b),
		"text":  a.Text() + b.Text(),
		"table": a.Text() + b.Text(),
	} {
		if got := Render(format, a, b); got != want {
			t.Errorf("Render(%q) =\n%s\nwant\n%s", format, got, want)
		}
	}
}

func TestTextRendersGapsAndScale(t *testing.T) {
	f := &Figure{
		Title:  "t",
		Axis:   "a",
		Series: []string{"x", "y"},
		Groups: []Group{{Label: "mcf", Values: []float64{0.5, 0}, Present: []bool{true, false}}},
	}
	out := f.Text()
	if strings.Contains(out, "mcf  y") {
		t.Errorf("absent bar rendered:\n%s", out)
	}
	if !strings.Contains(out, "scale: #") {
		t.Errorf("scale footer missing:\n%s", out)
	}
}

func TestFigureValidate(t *testing.T) {
	bad := []*Figure{
		{Groups: []Group{{Label: "g"}}},
		{Series: []string{"s"}},
		{Series: []string{"s"}, Groups: []Group{{Label: "g", Values: []float64{1, 2}}}},
		{Series: []string{"s"}, Groups: []Group{{Label: "g", Values: []float64{1}, Present: []bool{true, false}}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("figure %d should fail validation", i)
		}
	}
	ok := &Figure{Series: []string{"s"}, Groups: []Group{{Label: "g", Values: []float64{1}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid figure rejected: %v", err)
	}
}

func TestNiceCeil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 1}, {-3, 1}, {0.8, 0.8}, {1, 1}, {1.1, 1.25}, {0.93, 1},
		{0.021, 0.025}, {3.2, 4}, {7, 8}, {9.5, 10}, {120, 125},
	}
	for _, c := range cases {
		if got := niceCeil(c.in); got != c.want {
			t.Errorf("niceCeil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	f := &Figure{
		Title:  `a<b>&"c"`,
		Axis:   "a",
		Series: []string{"s<1>"},
		Groups: []Group{{Label: "g&h", Values: []float64{1}}},
	}
	out := SVGDocument(f)
	for _, bad := range []string{"a<b>", `&"c"`, "s<1>", "g&h:"} {
		if strings.Contains(out, bad) {
			t.Errorf("unescaped %q in SVG", bad)
		}
	}
	if !strings.Contains(out, "a&lt;b&gt;&amp;&quot;c&quot;") {
		t.Error("escaped title missing")
	}
}

// TestXMLEscapePlainLabelAllocatesNothing: labels are almost always plain
// workload and mechanism names, and escaping one must cost no allocation
// (the shared escaper is built once, and a label with nothing to escape
// comes back as is).
func TestXMLEscapePlainLabelAllocatesNothing(t *testing.T) {
	const label = "galgel+gcc DP 256x1 q=5000"
	if got := xmlEscape(label); got != label {
		t.Fatalf("xmlEscape(%q) = %q", label, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { xmlEscape(label) }); allocs != 0 {
		t.Fatalf("xmlEscape of a plain label allocates %v times, want 0", allocs)
	}
}

// mixCell builds a functional mix result under the given scheduler point.
func mixCell(quantum uint64, policy, asid string, hits, misses uint64) sweep.Result {
	j := sweep.Job{
		Mix: &sweep.Mix{
			Sources: []sweep.Source{sweep.WorkloadSource("galgel"), sweep.WorkloadSource("gcc")},
			Quantum: quantum,
			Policy:  policy,
			ASID:    asid,
		},
		Mech:   dp,
		Config: sim.Config{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 12},
		Refs:   1000,
	}
	return sweep.Result{
		Key:   j.Key(),
		Stats: sim.Stats{Refs: j.Refs, Misses: misses, BufferHits: hits},
	}
}

func TestBuildMixPolicySeries(t *testing.T) {
	// One mix, one quantum, three policies: policy is the only varying
	// facet, so it alone labels the series — bare, like a paper legend.
	results := []sweep.Result{
		mixCell(20_000, "retain", "flush", 70, 100),
		mixCell(20_000, "flush", "flush", 55, 100),
		mixCell(20_000, "per-process", "flush", 80, 100),
	}
	f, err := Build(results, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "retain|flush|per-process"; strings.Join(f.Series, "|") != want {
		t.Errorf("series = %v, want %s", f.Series, want)
	}
	if len(f.Groups) != 1 || f.Groups[0].Label != "galgel+gcc" {
		t.Errorf("groups = %+v, want one galgel+gcc group", f.Groups)
	}
}

func TestBuildMixQuantumAndPolicySeries(t *testing.T) {
	results := []sweep.Result{
		mixCell(5_000, "retain", "flush", 60, 100),
		mixCell(5_000, "flush", "flush", 40, 100),
		mixCell(20_000, "retain", "flush", 70, 100),
		mixCell(20_000, "flush", "flush", 55, 100),
	}
	f, err := Build(results, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "retain q=5000|flush q=5000|retain q=20000|flush q=20000"; strings.Join(f.Series, "|") != want {
		t.Errorf("series = %v, want %s", f.Series, want)
	}
}
