// Command perfbench is the repository's benchmark of the sweep pipeline,
// end to end and layer by layer. One measured run is one user action: open
// the sweep store, run sweep.Runner.Run over a workload's grid, save the
// store and render the workload's figures.
//
//	bash perfbench/run.sh --workload paper-fig --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it repeats the measured run for --seconds and prints the
// medians of the end-to-end metrics; with --trace 1 it makes one untraced
// and one traced run plus a replay of the layers the runner hides, and
// prints the per-layer metrics. Either way the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 1.23, "unit": "s"}, ...}}
//
// attempted counts the cells the measured runs settled and failed those
// that failed the correctness gate (gate.go). A human-readable summary goes
// to standard error; traced runs also dump their span tree as JSON under
// .bench_build/spans/. Workloads, metrics and the seed convention are
// described in provenance.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

//go:embed provenance.json
var provenanceJSON []byte

// provenance is the part of provenance.json the program reads: the
// seed-0 store digests of each workload at benchScale.
type provenance struct {
	Digests map[string]string `json:"seed0_store_sha256"`
}

func pinnedDigest(workload string) string {
	var p provenance
	if err := json.Unmarshal(provenanceJSON, &p); err != nil {
		panic("perfbench: provenance.json: " + err.Error())
	}
	return p.Digests[workload]
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics and their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"refs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"store_bytes", "bytes"},
}

// mechKinds are the mechanisms with a per-kind OnMiss metric.
var mechKinds = []string{"SP", "ASP", "MP", "RP", "DP", "STMS", "MASP", "SBFP"}

// perLayer lists the --trace 1 metrics and their units.
func perLayer() [][2]string {
	out := [][2]string{
		{"workload.gen_ns_per_ref", "ns"},
		{"trace.decode_ns_per_ref", "ns"},
		{"trace.decode_s", "s"},
		{"sim.frontend_ns_per_ref", "ns"},
		{"sim.group_ns_per_ref", "ns"},
		{"sim.shared_frontend_share", "ratio"},
		{"sim.misses_per_kref", "misses/kref"},
		{"sim.frontend_ns_per_ref.mcf", "ns"},
		{"sim.simulator_none_ns_per_ref.mcf", "ns"},
		{"sim.simulator_SBFP_ns_per_ref.mcf", "ns"},
		{"prefetch.SBFP.ns_per_miss.mcf", "ns"},
	}
	for _, k := range mechKinds {
		out = append(out, [2]string{"prefetch." + k + ".ns_per_miss", "ns"})
	}
	return append(out, [][2]string{
		{"prefetch.issued_per_miss", "ratio"},
		{"prefetch.useful_ratio", "ratio"},
		{"prefetch.dup_ratio", "ratio"},
		{"timing.ns_per_ref", "ns"},
		{"timing.allocs_per_miss", "allocs/miss"},
		{"timing.stall_share", "ratio"},
		{"timing.inflight_hit_share", "ratio"},
		{"timing.rp_skipped", "count"},
		{"multiprog.interleave_ns_per_ref", "ns"},
		{"multiprog.exec_ns_per_ref", "ns"},
		{"multiprog.switches_per_kref", "switches/kref"},
		{"sweep.shards", "count"},
		{"sweep.cells_run", "count"},
		{"sweep.cells_cached", "count"},
		{"sweep.cpu_util", "ratio"},
		{"sweep.tail_s", "s"},
		{"store.open_s", "s"},
		{"store.lookup_s", "s"},
		{"store.segment_reads", "count"},
		{"store.save_s", "s"},
		{"store.segment_writes", "count"},
		{"report.render_s", "s"},
		{"experiments.table3_abs_err", "ratio"},
		{"tracing.overhead_s", "s"},
	}...)
}

// runConfig is one invocation.
type runConfig struct {
	def     workloadDef
	seed    uint64
	seconds time.Duration
	traced  bool
	scale   scale
	dir     string // scratch directory, removed afterwards
	spans   string // directory traced runs write their span dumps to
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "input seed (0 reproduces the cells of cmd/experiments and cmd/tlbsweep)")
	seconds := fs.Float64("seconds", 10, "how long the untraced mode repeats the measured run")
	traced := fs.Int("trace", 0, "1: one traced run plus the layer replay, reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(wd, ".bench_build")
	cfg := runConfig{
		def: def, seed: *seed, traced: *traced == 1, scale: benchScale,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     filepath.Join(build, "work", fmt.Sprintf("%s-%d", def.name, os.Getpid())),
		spans:   filepath.Join(build, "spans"),
	}
	out, summary, err := execute(cfg)
	fmt.Fprint(stderr, summary)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute sets the workload up, measures it and checks its outputs,
// returning the result line and a human-readable summary.
func execute(c runConfig) (output, string, error) {
	var b strings.Builder
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return output{}, "", err
	}
	defer os.RemoveAll(c.dir)

	p, setups, err := setUp(c)
	if err != nil {
		return output{}, b.String(), fmt.Errorf("set-up: %w", err)
	}
	fmt.Fprintf(&b, "perfbench %s seed %d: %d cells\n", c.def.name, c.seed, len(p.jobs))

	expected := ""
	if c.seed == 0 && c.scale == benchScale {
		expected = pinnedDigest(c.def.name)
	}
	if c.traced {
		out, err := tracedRun(c, p, expected, &b)
		return out, b.String(), err
	}

	// One unmeasured run first lets the heap grow and the code and page
	// caches fill, so the first sample is not a cold-process outlier.
	if _, err := p.measure(nil); err != nil {
		return output{}, b.String(), err
	}
	var samples []sample
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < c.seconds {
		if !p.warm {
			// A cold workload's set-up takes milliseconds: repeating it
			// before every measured run samples it across the whole run,
			// as the measured runs are, for a steady median.
			extra, d, err := setUpOnce(c, len(setups))
			if err != nil {
				return output{}, b.String(), fmt.Errorf("set-up: %w", err)
			}
			if err := os.RemoveAll(extra.dir); err != nil {
				return output{}, b.String(), err
			}
			setups = append(setups, d.Seconds())
		}
		s, err := p.measure(nil)
		if err != nil {
			return output{}, b.String(), err
		}
		samples = append(samples, s)
	}
	out, err := gate(p, samples, expected, &b)
	if err != nil {
		return output{}, b.String(), err
	}
	col := func(f func(s sample) float64) float64 { return median(series(samples, f)) }
	out.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {col(func(s sample) float64 { return s.wall.Seconds() }), "s"},
		"cpu_s":       {col(func(s sample) float64 { return s.cpu.Seconds() }), "s"},
		"refs_per_s":  {col(func(s sample) float64 { return float64(s.cellRefs) / s.wall.Seconds() }), "1/s"},
		"peak_rss_mb": {col(func(s sample) float64 { return s.peakRSS }), "MB"},
		"alloc_mb":    {col(func(s sample) float64 { return s.allocMB }), "MB"},
		"store_bytes": {col(func(s sample) float64 { return float64(s.storeBytes) }), "bytes"},
	}
	fmt.Fprintf(&b, "%d set-ups: %s\n", len(setups), spread(setups))
	fmt.Fprintf(&b, "%d measured runs in %.1fs; wall_s %s\n", len(samples), time.Since(start).Seconds(),
		spread(series(samples, func(s sample) float64 { return s.wall.Seconds() })))
	writeMetrics(&b, out.Metrics)
	return out, b.String(), nil
}

// setUp runs the workload's set-up three times, each into a fresh
// directory, keeps the last plan and returns every set-up's duration in
// seconds.
func setUp(c runConfig) (*plan, []float64, error) {
	var (
		p     *plan
		times []float64
	)
	for n := 0; n < 3; n++ {
		next, d, err := setUpOnce(c, n)
		if err != nil {
			return nil, nil, err
		}
		if p != nil {
			if err := os.RemoveAll(p.dir); err != nil {
				return nil, nil, err
			}
		}
		p = next
		times = append(times, d.Seconds())
	}
	return p, times, nil
}

// setUpOnce times one set-up into the directory setup-n.
func setUpOnce(c runConfig, n int) (*plan, time.Duration, error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("setup-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	runtime.GC() // every set-up starts from the same collected heap
	start := time.Now()
	p, err := c.def.setup(env{dir: dir, seed: c.seed, scale: c.scale})
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	p.dir = dir
	return p, d, nil
}

// gate applies the correctness gate to a set of measured runs of one plan.
// Every run's store must hash to the expected digest (the pinned seed-0
// digest, or else the first run's), and a sample of cells is recomputed
// through the per-reference path. A run whose store differs, or whose
// Runner.Run failed, fails all its cells; a recomputed cell that disagrees
// fails once.
func gate(p *plan, samples []sample, expected string, b io.Writer) (output, error) {
	out := output{}
	if expected == "" {
		expected = samples[0].digest
	}
	for _, s := range samples {
		out.Attempted += len(p.jobs)
		if s.runErr != nil || s.digest != expected {
			out.Failed += len(p.jobs)
		}
	}
	fmt.Fprintf(b, "store digest %s (expected %s)\n", samples[0].digest, expected)
	if samples[0].runErr == nil {
		checked, bad, err := p.recompute(samples[0].results)
		if err != nil {
			return out, err
		}
		fmt.Fprintf(b, "recomputed %d cells per reference: %d differ\n", checked, bad)
		out.Failed += bad
	} else {
		fmt.Fprintf(b, "sweep failed: %v\n", samples[0].runErr)
	}
	out.Failed = min(out.Failed, out.Attempted)
	fmt.Fprintf(b, "cells_failed %d of %d\n", out.Failed, out.Attempted)
	out.Correct = out.Failed == 0
	return out, nil
}

// tracedRun makes an unmeasured warm-up run, one untraced and one traced
// measured run, then the layer replay, and derives the per-layer metrics
// from the spans.
func tracedRun(c runConfig, p *plan, expected string, b io.Writer) (output, error) {
	if _, err := p.measure(nil); err != nil {
		return output{}, err
	}
	base, err := p.measure(nil)
	if err != nil {
		return output{}, err
	}
	runID := fmt.Sprintf("%s-seed%d-%d", c.def.name, c.seed, time.Now().UnixNano())
	tr := newTracer(runID)
	traced, err := p.measure(tr)
	if err != nil {
		return output{}, err
	}
	counts, err := p.replay(tr)
	if err != nil {
		return output{}, err
	}
	out, err := gate(p, []sample{base, traced}, expected, b)
	if err != nil {
		return output{}, err
	}
	if err := os.MkdirAll(c.spans, 0o755); err != nil {
		return output{}, err
	}
	dump := filepath.Join(c.spans, runID+".json")
	if err := tr.write(dump); err != nil {
		return output{}, err
	}
	spans := tr.snapshot()
	fmt.Fprintf(b, "span tree (run %s, %d spans, written to %s):\n%s", runID, len(spans), dump, treeSummary(spans))
	out.Metrics, err = layerMetrics(selfTimes(spans), base, traced, counts)
	if err != nil {
		return output{}, err
	}
	writeMetrics(b, out.Metrics)
	return out, nil
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(self map[string]layerTotal, base, traced sample, c replayCounts) (map[string]metric, error) {
	m := make(map[string]metric)
	units := make(map[string]string)
	for _, nu := range perLayer() {
		units[nu[0]] = nu[1]
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }
	perUnit := func(name, span string) {
		t := self[span]
		set(name, ratio(float64(t.Self.Nanoseconds()), float64(t.Count)))
	}
	perUnit("workload.gen_ns_per_ref", "workload.generate")
	perUnit("trace.decode_ns_per_ref", "trace.read_batch")
	set("trace.decode_s", self["trace.read_batch"].Self.Seconds())
	perUnit("sim.frontend_ns_per_ref", "sim.frontend")
	perUnit("sim.group_ns_per_ref", "sim.group")
	set("sim.shared_frontend_share", ratio(float64(c.sharedGroups), float64(c.groups)))
	perUnit("sim.frontend_ns_per_ref.mcf", "sim.frontend.mcf")
	perUnit("sim.simulator_none_ns_per_ref.mcf", "sim.simulator.none.mcf")
	perUnit("sim.simulator_SBFP_ns_per_ref.mcf", "sim.simulator.SBFP.mcf")
	perUnit("prefetch.SBFP.ns_per_miss.mcf", "prefetch.SBFP.on_miss.mcf")
	for _, k := range mechKinds {
		perUnit("prefetch."+k+".ns_per_miss", "prefetch."+k+".on_miss")
	}
	perUnit("timing.ns_per_ref", "timing.ref")
	set("timing.allocs_per_miss", ratio(float64(c.timingMallocs), float64(c.timingMisses)))
	perUnit("multiprog.interleave_ns_per_ref", "multiprog.interleave")
	perUnit("multiprog.exec_ns_per_ref", "multiprog.exec")
	set("multiprog.switches_per_kref", 1000*ratio(float64(c.switches), float64(c.interleaved)))

	var refs, misses, pmisses, hits, issued, requested, dups, cycles, stalls, inflight, tHits, skipped float64
	for _, r := range traced.results {
		refs += float64(r.Stats.Refs)
		misses += float64(r.Stats.Misses)
		if r.Key.Mech.Kind != "none" {
			pmisses += float64(r.Stats.Misses)
			hits += float64(r.Stats.BufferHits)
			issued += float64(r.Stats.PrefetchesIssued)
			requested += float64(r.Stats.PrefetchesRequested)
			dups += float64(r.Stats.PrefetchDuplicates)
		}
		if t := r.Timing; t != nil {
			cycles += float64(t.Cycles)
			stalls += float64(t.StallCycles)
			inflight += float64(t.InFlightHits)
			tHits += float64(t.BufferHits)
			skipped += float64(t.SkippedPref)
		}
	}
	set("sim.misses_per_kref", 1000*ratio(misses, refs))
	set("prefetch.issued_per_miss", ratio(issued, pmisses))
	set("prefetch.useful_ratio", ratio(hits, issued))
	set("prefetch.dup_ratio", ratio(dups, requested))
	set("timing.stall_share", ratio(stalls, cycles))
	set("timing.inflight_hit_share", ratio(inflight, tHits))
	set("timing.rp_skipped", skipped)

	sum := traced.summary
	set("sweep.shards", float64(sum.Shards))
	set("sweep.cells_run", float64(sum.Ran))
	set("sweep.cells_cached", float64(sum.Cached))
	set("sweep.cpu_util", ratio(base.cpu.Seconds(), base.wall.Seconds()*float64(sweepWorkers())))
	set("sweep.tail_s", tailSeconds(base.settles))
	set("store.open_s", traced.open.Seconds())
	lookup := 0.0
	if sum.Ran == 0 {
		lookup = traced.run.Seconds()
	}
	set("store.lookup_s", lookup)
	set("store.segment_reads", float64(traced.segReads))
	set("store.save_s", traced.save.Seconds())
	set("store.segment_writes", float64(traced.segWrites))
	set("report.render_s", traced.rend.Seconds())
	absErr, _, err := table3AbsErr(traced.results)
	if err != nil {
		return nil, err
	}
	set("experiments.table3_abs_err", absErr)
	set("tracing.overhead_s", (traced.run - base.run).Seconds())
	for name := range m {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return m, nil
}

// tailSeconds is the gap between the last two shard settle bursts of a
// run: how long the slowest shard ran on after the one before it finished.
// A burst is a maximal run of consecutive fresh settles from one shard.
func tailSeconds(settles []settle) float64 {
	var ends []time.Duration
	last := ""
	for _, s := range settles {
		if s.cached {
			continue
		}
		if s.shard != last || len(ends) == 0 {
			ends = append(ends, s.at)
			last = s.shard
		} else {
			ends[len(ends)-1] = s.at
		}
	}
	if len(ends) < 2 {
		return 0
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return (ends[len(ends)-1] - ends[len(ends)-2]).Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeMetrics(w io.Writer, m map[string]metric) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// series extracts one number from every sample.
func series(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// spread renders a sample's minimum, quartiles and maximum.
func spread(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", slices.Min(xs), q[0], q[1], q[2], slices.Max(xs))
}

// quartiles returns the three cut points of a sample as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method);
// a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	for i := range out {
		// Position (i+1)(n+1)/4 in 1-based order, clamped to the sample.
		m := float64((i+1)*(n+1)) / 4
		j := int(m)
		switch {
		case j < 1:
			out[i] = s[0]
		case j >= n:
			out[i] = s[n-1]
		default:
			out[i] = s[j-1] + (m-float64(j))*(s[j]-s[j-1])
		}
	}
	return out
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
