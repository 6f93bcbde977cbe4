package sweep

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

func mixGrid(refs uint64) Grid {
	return Grid{
		Mixes: []Mix{
			{Sources: []Source{WorkloadSource("galgel"), WorkloadSource("gcc")}},
			{Sources: []Source{WorkloadSource("swim"), WorkloadSource("mcf")}},
		},
		Mechs:    []Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}},
		Quanta:   []uint64{5_000, 20_000},
		Policies: []string{"retain", "flush", "per-process"},
		Refs:     refs,
	}
}

func TestGridEnumeratesMixCells(t *testing.T) {
	jobs, err := mixGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 mixes x 1 mech x 2 quanta x 3 policies x 1 (default) asid.
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.Mix == nil {
			t.Fatalf("mix grid produced a single-source job: %+v", j)
		}
		h := j.Key().Hash()
		if seen[h] {
			t.Fatalf("duplicate key hash for %+v", j)
		}
		seen[h] = true
		k := j.Key()
		if k.Mix == nil || k.Mix.ASID != "flush" {
			t.Fatalf("key did not canonicalize the ASID default: %+v", k.Mix)
		}
	}
}

func TestGridMixSchedulerFallbacks(t *testing.T) {
	// No grid-level scheduler axes: the mix's own fields (then defaults)
	// fill in.
	g := Grid{
		Mixes: []Mix{{
			Sources: []Source{WorkloadSource("swim"), WorkloadSource("mcf")},
			Quantum: 7_000,
			Policy:  "flush",
		}},
		Mechs: []Mech{{Kind: "RP"}},
		Refs:  10_000,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(jobs))
	}
	m := jobs[0].Key().Mix
	if m.Quantum != 7_000 || m.Policy != "flush" || m.ASID != "flush" {
		t.Fatalf("fallbacks not applied: %+v", m)
	}

	g.Mixes[0].Quantum = 0
	g.Mixes[0].Policy = ""
	jobs, err = g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	m = jobs[0].Key().Mix
	if m.Quantum != DefaultQuantum || m.Policy != "retain" {
		t.Fatalf("defaults not applied: %+v", m)
	}
}

func TestMixJobValidate(t *testing.T) {
	mix := &Mix{Sources: []Source{WorkloadSource("swim"), WorkloadSource("mcf")}}
	good := Job{Mix: mix, Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 1000}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	both := good
	both.Source = WorkloadSource("swim")
	if err := both.Validate(); err == nil {
		t.Error("job with both a source and a mix validated")
	}

	lone := good
	lone.Mix = &Mix{Sources: []Source{WorkloadSource("swim")}}
	if err := lone.Validate(); err == nil {
		t.Error("single-member mix validated")
	}

	badPol := good
	badPol.Mix = &Mix{Sources: mix.Sources, Policy: "keep"}
	if err := badPol.Validate(); err == nil {
		t.Error("unknown policy validated")
	}

	seeded := good
	seeded.Seed = 42
	if err := seeded.Validate(); err == nil {
		t.Error("seeded mix job validated")
	}

	warm := good
	warm.Warmup = 100
	if err := warm.Validate(); err == nil {
		t.Error("warmup mix job validated")
	}

	timed := good
	dt := DefaultTiming()
	timed.Timing = &dt
	if err := timed.Validate(); err == nil {
		t.Error("timing mix job validated")
	}
}

func TestGridRejectsMixWithTimingOrWarmup(t *testing.T) {
	g := mixGrid(10_000)
	g.Warmup = 100
	if _, err := g.Jobs(); err == nil {
		t.Error("mix grid with warmup enumerated")
	}
	g = mixGrid(10_000)
	g.TimingAxes = TimingAxes{MissPenalties: []uint64{100}}
	if _, err := g.Jobs(); err == nil {
		t.Error("mix grid with timing enumerated")
	}
}

// TestMixWorkerCountDeterminism extends the store-level determinism
// contract to mix cells: 1 worker and 8 workers produce byte-identical
// stores.
func TestMixWorkerCountDeterminism(t *testing.T) {
	jobs, err := mixGrid(30_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var stores [][]byte
	for _, workers := range []int{1, 8} {
		st := NewStore()
		r := Runner{Store: st, Workers: workers}
		if _, _, err := r.Run(jobs); err != nil {
			t.Fatal(err)
		}
		b, err := st.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, b)
	}
	if !bytes.Equal(stores[0], stores[1]) {
		t.Fatal("1-worker and 8-worker mix sweeps produced different stores")
	}
}

// TestMixCellsShareStreamShards pins the coalescing contract: cells that
// differ only in policy/ASID share one interleaving pass per (mix, quantum,
// geometry), so the 12-cell grid runs in 4 shards (2 mixes × 2 quanta).
func TestMixCellsShareStreamShards(t *testing.T) {
	jobs, err := mixGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := (&Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 4 {
		t.Fatalf("shards = %d, want 4 (one per mix × quantum)", sum.Shards)
	}
}

// TestMixCellMatchesDirectMultiprog pins the runner's mix path to the
// multiprog package driven directly: same split, same interleaving, same
// switch actions.
func TestMixCellMatchesDirectMultiprog(t *testing.T) {
	w1, _ := workload.ByName("galgel")
	w2, _ := workload.ByName("gcc")
	cfg := sim.Config{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 12}

	for _, tc := range []struct {
		policy string
		asid   string
		pol    multiprog.Policy
		mode   multiprog.ASIDMode
	}{
		{"retain", "flush", multiprog.Retain, multiprog.ASIDFlush},
		{"flush", "tagged", multiprog.Flush, multiprog.ASIDTagged},
		{"per-process", "flush", multiprog.PerProcess, multiprog.ASIDFlush},
	} {
		job := Job{
			Mix: &Mix{
				Sources: []Source{WorkloadSource("galgel"), WorkloadSource("gcc")},
				Quantum: 5_000,
				Policy:  tc.policy,
				ASID:    tc.asid,
			},
			Mech:   Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
			Config: cfg,
			Refs:   60_000,
		}
		res, _, err := (&Runner{}).Run([]Job{job})
		if err != nil {
			t.Fatal(err)
		}
		shares := multiprog.Split(60_000, 2)
		srcs := make([]trace.BatchReader, 2)
		for i, w := range []workload.Workload{w1, w2} {
			var refs []trace.Ref
			workload.Generate(w, shares[i], func(pc, vaddr uint64) bool {
				refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
				return true
			})
			srcs[i] = trace.NewSliceReader(refs)
		}
		it := multiprog.NewStreamInterleaver(srcs, 5_000)
		e := multiprog.NewExec(cfg, tc.pol, tc.mode, 2, job.Mech.Build)
		for {
			proc, pc, vaddr, ok := it.Next()
			if !ok {
				break
			}
			e.Ref(proc, pc, vaddr)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		direct := e.Results()
		if res[0].Stats.Misses != direct.Aggregate.Misses || res[0].Stats.BufferHits != direct.Aggregate.BufferHits {
			t.Errorf("%s/%s: sweep cell %+v != direct multiprog run (misses %d, hits %d)",
				tc.policy, tc.asid, res[0].Stats, direct.Aggregate.Misses, direct.Aggregate.BufferHits)
		}
		if len(res[0].Apps) != 2 {
			t.Fatalf("apps = %d, want 2", len(res[0].Apps))
		}
		for i, a := range res[0].Apps {
			if a != direct.Apps[i] {
				t.Errorf("%s/%s: app %d attribution %+v != direct %+v",
					tc.policy, tc.asid, i, a, direct.Apps[i])
			}
		}
	}
}

// TestGridRejectsZeroQuantum pins that an explicit zero on the quantum axis
// is an error, not a silent rewrite to DefaultQuantum (a zero Mix.Quantum
// still means the default; see TestGridMixSchedulerFallbacks).
func TestGridRejectsZeroQuantum(t *testing.T) {
	for _, quanta := range [][]uint64{{0}, {0, 20_000}, {20_000, 0}} {
		g := mixGrid(2_000)
		g.Quanta = quanta
		_, err := g.Jobs()
		if err == nil || err.Error() != "sweep: mix quantum must be positive" {
			t.Errorf("quanta %v: err = %v, want the positive-quantum error", quanta, err)
		}
	}
}

// TestMixSharedFrontendMatchesPerRefExec pins the mix shard's batched path
// (StreamInterleaver.NextRun feeding a multiprog.Group, whose cells of one
// ASID mode share one TLB) to the per-reference path (Next feeding each
// cell's own Exec.Ref), over whole sim.Stats: aggregate and per app. One
// shard per quantum holds every policy × ASID pair × {none, DP, RP, SBFP}
// × buffers {8, 16}. With 5000 references per process, quantum 4096 ends
// runs exactly at the interleaver's chunk ends and quanta 1, 3 and 5000
// cut quanta across them. One mix is synthetic; the other's members are
// in-memory traces served through the OpenTrace hook.
func TestMixSharedFrontendMatchesPerRefExec(t *testing.T) {
	const refs = 10_000
	shares := multiprog.Split(refs, 2)
	gen := func(name string, n uint64) []trace.Ref {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		out := make([]trace.Ref, 0, n)
		workload.Generate(w, n, func(pc, vaddr uint64) bool {
			out = append(out, trace.Ref{PC: pc, VAddr: vaddr})
			return true
		})
		return out
	}
	recorded := map[string][]trace.Ref{"mcf-digest": gen("mcf", shares[0]), "twolf-digest": gen("twolf", shares[1])}
	streams := map[Source][]trace.Ref{
		WorkloadSource("galgel"): gen("galgel", shares[0]),
		WorkloadSource("gcc"):    gen("gcc", shares[1]),
	}
	for digest, refs := range recorded {
		streams[Source{TraceSHA256: digest}] = refs
	}
	g := Grid{
		Mixes: []Mix{
			{Sources: []Source{WorkloadSource("galgel"), WorkloadSource("gcc")}},
			{Sources: []Source{
				{TracePath: "mcf.trc", TraceSHA256: "mcf-digest"},
				{TracePath: "twolf.trc", TraceSHA256: "twolf-digest"},
			}},
		},
		Mechs: []Mech{
			{Kind: "none"},
			{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
			{Kind: "RP"},
			{Kind: "SBFP"},
		},
		Buffers:  []int{8, 16},
		Quanta:   []uint64{1, 3, 4096, 5000},
		Policies: []string{"retain", "flush", "per-process"},
		ASIDs:    []string{"flush", "tagged"},
		Refs:     refs,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*4*6*4*2 {
		t.Fatalf("jobs = %d, want 384", len(jobs))
	}
	r := &Runner{OpenTrace: func(src Source) (trace.BatchReader, io.Closer, error) {
		refs, ok := recorded[src.TraceSHA256]
		if !ok {
			return nil, nil, fmt.Errorf("no recording %s", src.TraceSHA256)
		}
		return trace.NewSliceReader(refs), nil, nil
	}}
	res, sum, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 8 {
		t.Fatalf("shards = %d, want 8 (one per mix × quantum)", sum.Shards)
	}
	for i, j := range jobs {
		m := j.Mix.Canonical()
		pol, _ := multiprog.ParsePolicy(m.Policy)
		asid, _ := multiprog.ParseASID(m.ASID)
		srcs := make([]trace.BatchReader, len(j.Mix.Sources))
		for p, src := range m.Sources {
			srcs[p] = trace.NewSliceReader(streams[src])
		}
		it := multiprog.NewStreamInterleaver(srcs, m.Quantum)
		e := multiprog.NewExec(j.Config, pol, asid, len(srcs), j.Mech.Build)
		for {
			proc, pc, vaddr, ok := it.Next()
			if !ok {
				break
			}
			e.Ref(proc, pc, vaddr)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		want := e.Results()
		name := fmt.Sprintf("%s q=%d %s/%s %s buf=%d", j.Mix.Label(), m.Quantum, m.Policy, m.ASID, j.Mech.Label(), j.Config.BufferEntries)
		if res[i].Stats != want.Aggregate {
			t.Errorf("%s: aggregate %+v, per-reference path %+v", name, res[i].Stats, want.Aggregate)
		}
		if len(res[i].Apps) != len(want.Apps) {
			t.Fatalf("%s: %d apps, want %d", name, len(res[i].Apps), len(want.Apps))
		}
		for p := range want.Apps {
			if res[i].Apps[p] != want.Apps[p] {
				t.Errorf("%s: app %d %+v, per-reference path %+v", name, p, res[i].Apps[p], want.Apps[p])
			}
		}
	}
}

// TestMixCacheSatisfiesSecondRun pins the caching contract for mix cells.
func TestMixCacheSatisfiesSecondRun(t *testing.T) {
	jobs, err := mixGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, sum, err := (&Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	} else if sum.Ran != len(jobs) {
		t.Fatalf("cold run: %+v", sum)
	}
	if _, sum, err := (&Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	} else if sum.Cached != len(jobs) || sum.Ran != 0 {
		t.Fatalf("warm run recomputed cells: %+v", sum)
	}
}

func TestMixFilterFields(t *testing.T) {
	jobs, err := mixGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, _, err := (&Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		spec string
		want int
	}{
		{"mix=true", 12},
		{"mix=false", 0},
		{"quantum=5000", 6},
		{"policy=flush", 4},
		{"policy=retain,quantum=20000", 2},
		{"asid=flush", 12},
		{"asid=tagged", 0},
		{"source=galgel+gcc", 6},
		{"workload=galgel", 6},
		{"workload=swim", 6},
	} {
		f, err := ParseFilter(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		sel, err := f.Select(st)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := len(sel); got != tc.want {
			t.Errorf("filter %q selected %d cells, want %d", tc.spec, got, tc.want)
		}
	}
}

// TestMixStoreRoundTrip pins serialization: mix keys and per-app payloads
// survive a save/load cycle byte-identically.
func TestMixStoreRoundTrip(t *testing.T) {
	jobs, err := mixGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, _, err := (&Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st2, err := OpenStore(dir + "/mix.json")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := st.Results()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Apps) != 2 {
			t.Fatalf("mix cell stored %d app entries", len(r.Apps))
		}
		st2.Put(r)
	}
	if err := st2.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir + "/mix.json")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := st2.Bytes()
	b2, _ := re.Bytes()
	if !bytes.Equal(b1, b2) {
		t.Fatal("mix store changed across save/load")
	}
	if _, sum, err := (&Runner{Store: re}).Run(jobs); err != nil {
		t.Fatal(err)
	} else if sum.Cached != len(jobs) {
		t.Fatalf("reloaded store did not satisfy the grid: %+v", sum)
	}
}
