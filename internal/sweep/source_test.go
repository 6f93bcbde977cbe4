package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// recordTrace writes a workload's first refs references to a binary trace
// file and returns its source.
func recordTrace(t *testing.T, path, workloadName string, refs uint64) Source {
	t.Helper()
	w, ok := workload.ByName(workloadName)
	if !ok {
		t.Fatalf("unknown workload %q", workloadName)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBinaryWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.GenerateTo(w, refs, bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := TraceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestTraceDigestStability pins the key-stability contract: the same trace
// content produces the same content address no matter where the file lives
// or how often it is re-read.
func TestTraceDigestStability(t *testing.T) {
	dir := t.TempDir()
	a := recordTrace(t, filepath.Join(dir, "a.trc"), "swim", 5_000)
	b := recordTrace(t, filepath.Join(dir, "elsewhere.trc"), "swim", 5_000)
	reread, err := TraceSource(a.TracePath)
	if err != nil {
		t.Fatal(err)
	}

	job := func(src Source) Job {
		return Job{Source: src, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 5_000}
	}
	ha := job(a).Key().Hash()
	if hb := job(b).Key().Hash(); hb != ha {
		t.Error("same trace content at different paths keyed differently")
	}
	if hr := job(reread).Key().Hash(); hr != ha {
		t.Error("re-reading the trace changed its key")
	}

	other := recordTrace(t, filepath.Join(dir, "other.trc"), "mcf", 5_000)
	if job(other).Key().Hash() == ha {
		t.Error("different trace content keyed identically")
	}

	// The canonical key carries the digest, never the local path.
	if k := job(a).Key(); k.Source.TracePath != "" || k.Source.TraceSHA256 == "" {
		t.Errorf("canonical key source = %+v, want digest only", k.Source)
	}
}

// TestTraceJobMatchesWorkloadJob pins trace replay against synthetic
// generation: a cell driven by a recording of a workload is bit-identical
// to the cell driven by the workload itself, warmup included.
func TestTraceJobMatchesWorkloadJob(t *testing.T) {
	dir := t.TempDir()
	src := recordTrace(t, filepath.Join(dir, "gap.trc"), "gap", 30_000)

	mech := Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}
	traceJob := Job{Source: src, Mech: mech, Config: sim.Default(), Refs: 20_000, Warmup: 10_000}
	workJob := Job{Source: WorkloadSource("gap"), Mech: mech, Config: sim.Default(), Refs: 20_000, Warmup: 10_000}

	res, _, err := (&Runner{}).Run([]Job{traceJob, workJob})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Stats != res[1].Stats {
		t.Fatalf("trace replay %+v != synthetic run %+v", res[0].Stats, res[1].Stats)
	}
	if res[0].Key.Hash() == res[1].Key.Hash() {
		t.Error("trace and synthetic cells content-addressed identically")
	}
}

// TestTraceJobTimingShardsSharePass runs a trace cell under two timing
// points and checks both against direct simulators fed the same recording.
func TestTraceJobTimingMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	src := recordTrace(t, filepath.Join(dir, "mcf.trc"), "mcf", 20_000)

	fast := DefaultTiming()
	slow := DefaultTiming()
	slow.MissPenalty = 400
	jobs := []Job{
		{Source: src, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 20_000, Timing: &fast},
		{Source: src, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 20_000, Timing: &slow},
	}
	res, sum, err := (&Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 1 {
		t.Errorf("timing points over one trace used %d shards, want 1 shared pass", sum.Shards)
	}
	for i, tm := range []sim.Timing{fast, slow} {
		s := sim.NewTiming(tm.Config(sim.Default()), jobs[i].Mech.Build())
		r, closer, err := trace.OpenFile(src.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunBatch(trace.AsBatch(r)); err != nil {
			t.Fatal(err)
		}
		closer.Close()
		if *res[i].Timing != s.Stats() {
			t.Fatalf("timing point %d: runner %+v != direct %+v", i, *res[i].Timing, s.Stats())
		}
	}
	if res[0].Timing.Cycles >= res[1].Timing.Cycles {
		t.Error("400-cycle penalty did not cost more cycles than 100")
	}
}

// TestTraceDigestMismatchRefusesToRun pins the provenance check: editing
// the trace file after the grid was declared fails the run instead of
// silently simulating different bytes under the old key.
func TestTraceDigestMismatchRefusesToRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.trc")
	src := recordTrace(t, path, "swim", 5_000)
	recordTrace(t, path, "mcf", 5_000) // overwrite with different content
	_, _, err := (&Runner{}).Run([]Job{{Source: src, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 5_000}})
	if err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Fatalf("stale digest ran anyway (err=%v)", err)
	}
}

// TestStaleDigestNotMaskedBySharedPath pins the per-source digest check:
// when two sources name the same path but different digests (a stale key
// next to a fresh one), the stale one must fail even though the path
// itself was already verified for the fresh source.
func TestStaleDigestNotMaskedBySharedPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.trc")
	stale := recordTrace(t, path, "swim", 5_000)
	fresh := recordTrace(t, path, "mcf", 5_000) // overwrites the file
	job := func(src Source) Job {
		return Job{Source: src, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 5_000}
	}
	// Fresh source alone runs fine.
	if _, _, err := (&Runner{}).Run([]Job{job(fresh)}); err != nil {
		t.Fatal(err)
	}
	// Fresh first, stale second: the cached path digest must still fail
	// the stale source.
	_, _, err := (&Runner{}).Run([]Job{job(fresh), job(stale)})
	if err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Fatalf("stale digest hid behind the verified path (err=%v)", err)
	}
}

// TestTraceTooShortFails pins the reference-budget check.
func TestTraceTooShortFails(t *testing.T) {
	dir := t.TempDir()
	src := recordTrace(t, filepath.Join(dir, "short.trc"), "swim", 1_000)
	_, _, err := (&Runner{}).Run([]Job{{Source: src, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 5_000}})
	if err == nil || !strings.Contains(err.Error(), "ends after") {
		t.Fatalf("short trace did not fail the cell (err=%v)", err)
	}
}

func TestSourceValidate(t *testing.T) {
	if err := (Source{}).Validate(); err == nil {
		t.Error("empty source validated")
	}
	if err := (Source{Workload: "swim", TraceSHA256: "ab"}).Validate(); err == nil {
		t.Error("ambiguous source validated")
	}
	if err := (Job{Source: Source{TraceSHA256: "ab"}, Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 100, Seed: 7}).Validate(); err == nil {
		t.Error("seeded trace job validated")
	}
	if got := (Source{TraceSHA256: "0123456789abcdef00"}).Label(); got != "trace:0123456789ab" {
		t.Errorf("trace label = %q", got)
	}
}

// TestGridCrossesTracesAndTimings checks the two new grid axes enumerate
// and dedupe like the original ones.
func TestGridCrossesTracesAndTimings(t *testing.T) {
	dir := t.TempDir()
	src := recordTrace(t, filepath.Join(dir, "swim.trc"), "swim", 2_000)
	g := Grid{
		Workloads:  []string{"mcf"},
		Traces:     []Source{src},
		Mechs:      []Mech{{Kind: "RP"}, {Kind: "none"}},
		Refs:       2_000,
		TimingAxes: TimingAxes{MissPenalties: []uint64{100, 200}},
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 sources × 2 mechs × 2 timing points.
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.Timing == nil {
			t.Fatal("timing axis produced a functional cell")
		}
		h := j.Key().Hash()
		if seen[h] {
			t.Fatalf("duplicate cell %+v", j.Key())
		}
		seen[h] = true
	}

	// A seeded grid must not try to reseed the recorded trace.
	g.Seed = 7
	jobs, err = g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Source.IsTrace() && j.Seed != 0 {
			t.Fatal("trace cell picked up a derived seed")
		}
		if !j.Source.IsTrace() && j.Seed == 0 {
			t.Fatal("synthetic cell missed its derived seed")
		}
	}
}
