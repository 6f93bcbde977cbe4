package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/sweep"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{FigRefs: 3_000, T3Refs: 3_000, MixRefs: 20_000}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "read", Start: 10, End: 30, Count: 5},
		{ID: 2, Parent: 0, Name: "read", Start: 20, End: 50, Count: 7}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "save", Start: 90, End: 120},          // runs past its parent
		{ID: 4, Parent: 3, Name: "fsync", Start: 95, End: 105},
		{ID: 5, Parent: -1, Name: "replay", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"run":    100 - 40 - 10, // children cover [10,50] and [90,100]
		"read":   20 + 30,
		"save":   30 - 10,
		"fsync":  10,
		"replay": 60,
	}
	for name, w := range want {
		if got[name].Self != w {
			t.Errorf("%s self = %d, want %d", name, got[name].Self, w)
		}
	}
	if got["read"].Count != 12 || got["read"].N != 2 {
		t.Errorf("read aggregates %+v, want count 12 over 2 spans", got["read"])
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v", m)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric name and unit the program emits, and
// that BENCHMARK.json declares exactly the metrics the program emits.
func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([][2]string{}, endToEnd...), perLayer()...) {
		if !metricName.MatchString(m[0]) || !unit.MatchString(m[1]) || seen[m[0]] {
			t.Errorf("bad or repeated metric %q unit %q", m[0], m[1])
		}
		seen[m[0]] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, emitted [][2]string) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
			return
		}
		for i := range declared {
			if declared[i].Name != emitted[i][0] || declared[i].Unit != emitted[i][1] {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, the program %s/%s", kind, i,
					declared[i].Name, declared[i].Unit, emitted[i][0], emitted[i][1])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer())
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny scale in both modes
// and requires the correctness gate to pass and every declared metric to
// be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			c := runConfig{def: def, seed: 3, seconds: time.Nanosecond, traced: traced,
				scale: tinyScale, dir: t.TempDir(), spans: t.TempDir()}
			out, summary, err := execute(c)
			if err != nil {
				t.Fatalf("%s traced=%t: %v\n%s", def.name, traced, err, summary)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s traced=%t: gate %+v\n%s", def.name, traced, out, summary)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", def.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := out.Metrics[m[0]]
				if !ok || v.Unit != m[1] || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v", def.name, traced, m[0], v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", def.name, m[0], v.Value)
				}
			}
		}
	}
}

// TestTracingDoesNotChangeStoreBytes pins that observability never changes
// results: a traced measured run saves the same store as an untraced one.
func TestTracingDoesNotChangeStoreBytes(t *testing.T) {
	for _, def := range workloads {
		p, err := def.setup(env{dir: t.TempDir(), seed: 5, scale: tinyScale})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := p.measure(nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := p.measure(newTracer("test"))
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest == "" || plain.digest != traced.digest {
			t.Errorf("%s: untraced store %s, traced %s", def.name, plain.digest, traced.digest)
		}
	}
}

// TestSeedZeroReproducesExperiments pins the seed convention: at seed 0 the
// paper-fig and table3-space grids hold exactly the cells cmd/experiments
// computes for the same figures.
func TestSeedZeroReproducesExperiments(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Refs = tinyScale.FigRefs
	opts.Store = sweep.NewStore()
	experiments.Fig7(opts)
	experiments.Fig9(opts)
	experiments.ExtModern(opts)
	assertSameCells(t, "paper-fig", opts.Store)

	opts.Refs = tinyScale.T3Refs
	opts.Store = sweep.NewStore()
	if _, err := experiments.Table3Space(opts, experiments.DefaultTable3SpaceAxes()); err != nil {
		t.Fatal(err)
	}
	assertSameCells(t, "table3-space", opts.Store)
}

func assertSameCells(t *testing.T, name string, want *sweep.Store) {
	t.Helper()
	def, _ := workloadByName(name)
	p, err := def.setup(env{dir: t.TempDir(), seed: 0, scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := want.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if d := digestStore(data); d != s.digest {
		t.Errorf("%s: benchmark store %s, cmd/experiments store %s", name, s.digest, d)
	}
}

// TestGateCatchesWrongResult checks the per-reference recompute fails a
// cell whose stored statistics were altered.
func TestGateCatchesWrongResult(t *testing.T) {
	for _, name := range []string{"paper-fig", "table3-space", "mix-trace"} {
		def, _ := workloadByName(name)
		p, err := def.setup(env{dir: t.TempDir(), seed: 7, scale: tinyScale})
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.measure(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, bad, err := p.recompute(s.results); err != nil || bad != 0 {
			t.Fatalf("%s: clean results: %d bad, err %v", name, bad, err)
		}
		res := append([]sweep.Result(nil), s.results...)
		res[0].Stats.BufferHits++
		if res[0].Timing != nil {
			tm := *res[0].Timing
			tm.Cycles++
			res[0].Timing = &tm
		}
		if _, bad, err := p.recompute(res); err != nil || bad != 1 {
			t.Errorf("%s: altered cell: %d bad, err %v; want 1", name, bad, err)
		}
	}
}

func TestPublishedTable3ReadsPaperColumns(t *testing.T) {
	rows := []experiments.Table3Row{{App: "mcf", RPNormalized: 1.5, DPNormalized: 0.5}}
	got, err := publishedTable3(experiments.FormatTable3(rows))
	if err != nil {
		t.Fatal(err)
	}
	if got["mcf"] != [2]float64{1.09, 0.95} {
		t.Fatalf("mcf published = %v, want [1.09 0.95]", got["mcf"])
	}
}

func TestTailSeconds(t *testing.T) {
	ms := time.Millisecond
	settles := []settle{
		{at: 10 * ms, shard: "a"}, {at: 11 * ms, shard: "a"},
		{at: 30 * ms, shard: "b"},
		{at: 31 * ms, shard: "x", cached: true},
		{at: 70 * ms, shard: "c"}, {at: 75 * ms, shard: "c"},
	}
	if got := tailSeconds(settles); got != 0.045 {
		t.Fatalf("tail = %v, want 0.045", got)
	}
}
