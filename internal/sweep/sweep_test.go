package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/workload"
)

func testGrid(refs uint64) Grid {
	return Grid{
		Workloads:  []string{"swim", "mcf"},
		Mechs:      []Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, {Kind: "RP"}},
		TLBEntries: []int{64, 128},
		Buffers:    []int{8, 16},
		Refs:       refs,
	}
}

func TestGridEnumeratesCrossProduct(t *testing.T) {
	jobs, err := testGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 mechs x 2 TLB sizes x 2 buffers.
	if len(jobs) != 16 {
		t.Fatalf("jobs = %d, want 16", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		h := j.Key().Hash()
		if seen[h] {
			t.Fatalf("duplicate key hash for %+v", j)
		}
		seen[h] = true
	}
}

func TestGridDedupesAxesTheMechanismIgnores(t *testing.T) {
	g := Grid{
		Workloads: []string{"swim"},
		Mechs: []Mech{
			{Kind: "RP", Rows: 64},
			{Kind: "RP", Rows: 256}, // same cell: RP has no table
			{Kind: "ASP", Rows: 256, Slots: 4},
			{Kind: "ASP", Rows: 256, Slots: 2}, // same cell: ASP has no slots
		},
		Refs: 10_000,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (RP and ASP,256 each once)", len(jobs))
	}
}

func TestMechNormalizeLabelValidate(t *testing.T) {
	if got := (Mech{Kind: "DP", Rows: 256, Ways: 1}).Label(); got != "DP,256,D" {
		t.Errorf("label = %q", got)
	}
	if got := (Mech{Kind: "MP", Rows: 256, Ways: 256}).Label(); got != "MP,256,F" {
		t.Errorf("label = %q", got)
	}
	if got := (Mech{Kind: "RP", Rows: 999}).Normalize(); got != (Mech{Kind: "RP"}) {
		t.Errorf("RP normalize kept table params: %+v", got)
	}
	if err := (Mech{Kind: "XX"}).Validate(); err == nil {
		t.Error("unknown kind validated")
	}
	if err := (Mech{Kind: "DP", Ways: 1}).Validate(); err == nil {
		t.Error("DP with no rows validated")
	}
	if err := (Mech{Kind: "none"}).Validate(); err != nil {
		t.Errorf("none: %v", err)
	}
}

func TestKeyCanonicalizesFullyAssociativeTLB(t *testing.T) {
	a := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"}, Refs: 1000,
		Config: sim.Config{TLB: tlb.Config{Entries: 128, Ways: 0}, BufferEntries: 16, PageShift: 12}}
	b := a
	b.Config.TLB.Ways = 128 // the same fully associative TLB, spelled explicitly
	if a.Key().Hash() != b.Key().Hash() {
		t.Fatal("Ways=0 and Ways=Entries content-address to different cells")
	}
	c := a
	c.Config.TLB.Ways = 2
	if a.Key().Hash() == c.Key().Hash() {
		t.Fatal("distinct associativity hashed identically")
	}
	// And the two spellings really do simulate identically.
	res, _, err := (&Runner{}).Run([]Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Stats != res[1].Stats {
		t.Fatal("equivalent TLB spellings produced different stats")
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 1000}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	dt := DefaultTiming()
	bad.Timing = &dt
	bad.Warmup = 10
	if err := bad.Validate(); err == nil {
		t.Error("timing job with warmup validated")
	}
}

// TestWorkerCountDeterminism pins the store-level determinism contract:
// the same grid run with 1 worker and with many workers produces
// byte-identical stores.
func TestWorkerCountDeterminism(t *testing.T) {
	jobs, err := testGrid(30_000).Jobs()
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
		t.Fatal("1-worker and 8-worker sweeps produced different stores")
	}
}

// TestSingleCellRerunMatchesSweep pins cell-level reproducibility: running
// one cell in isolation yields exactly the stats the full sweep stored for
// it.
func TestSingleCellRerunMatchesSweep(t *testing.T) {
	jobs, err := testGrid(30_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, _, err := (&Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	for _, pick := range []int{3, 10, len(jobs) - 1} {
		solo, _, err := (&Runner{}).Run([]Job{jobs[pick]})
		if err != nil {
			t.Fatal(err)
		}
		stored, ok, err := st.Get(jobs[pick].Key().Hash())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("cell %d missing from store", pick)
		}
		if solo[0].Stats != stored.Stats {
			t.Fatalf("cell %d: isolated run %+v != sweep value %+v", pick, solo[0].Stats, stored.Stats)
		}
	}
}

// TestRunnerMatchesDirectSimulator pins the runner's shard loop (including
// warmup) against a hand-rolled simulator run.
func TestRunnerMatchesDirectSimulator(t *testing.T) {
	cfg := sim.Config{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 12}
	mech := Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}
	const refs, warmup = 40_000, 20_000
	direct := func(w workload.Workload) sim.Stats {
		s := sim.New(cfg, mech.Build())
		var seen uint64
		workload.Generate(w, warmup+refs, func(pc, vaddr uint64) bool {
			s.Ref(pc, vaddr)
			seen++
			if seen == warmup {
				s.ResetStats()
			}
			return true
		})
		return s.Stats()
	}
	// Seed 0 replays the registry stream; a nonzero seed replaces the
	// model's seed (mcf's stream depends on it, gap's does not).
	for _, c := range []struct {
		name string
		seed uint64
	}{{"gap", 0}, {"mcf", 7}} {
		job := Job{Source: WorkloadSource(c.name), Mech: mech,
			Config: cfg, Refs: refs, Warmup: warmup, Seed: c.seed}
		res, _, err := (&Runner{}).Run([]Job{job})
		if err != nil {
			t.Fatal(err)
		}
		w, _ := workload.ByName(c.name)
		registry := direct(w)
		if c.seed != 0 {
			w.Seed = c.seed
		}
		want := direct(w)
		if res[0].Stats != want {
			t.Fatalf("%s seed %d: runner %+v != direct %+v", c.name, c.seed, res[0].Stats, want)
		}
		if c.seed != 0 && want == registry {
			t.Fatalf("%s seed %d: same stats as the registry seed — the case pins nothing", c.name, c.seed)
		}
	}
}

// TestTimingJobMatchesDirectSimulator does the same for the cycle model.
func TestTimingJobMatchesDirectSimulator(t *testing.T) {
	w, _ := workload.ByName("mcf")
	cfg := sim.Default()
	dt := DefaultTiming()
	job := Job{Source: WorkloadSource("mcf"), Mech: Mech{Kind: "RP"}, Config: cfg, Refs: 40_000, Timing: &dt}

	res, _, err := (&Runner{}).Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Timing == nil {
		t.Fatal("timing job returned no timing stats")
	}

	tc := sim.DefaultTiming()
	tc.Config = cfg
	s := sim.NewTiming(tc, job.Mech.Build())
	workload.Generate(w, job.Refs, func(pc, vaddr uint64) bool {
		s.Ref(pc, vaddr)
		return true
	})
	if *res[0].Timing != s.Stats() {
		t.Fatalf("runner %+v != direct %+v", *res[0].Timing, s.Stats())
	}
	if res[0].Timing.Cycles == 0 {
		t.Fatal("no cycles accounted")
	}
}

func TestCacheSatisfiesSecondRun(t *testing.T) {
	jobs, err := testGrid(20_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	r := Runner{Store: st}
	if _, sum, err := r.Run(jobs); err != nil || sum.Ran != len(jobs) {
		t.Fatalf("first run: sum=%+v err=%v", sum, err)
	}
	var events int
	r.Progress = func(ev ProgressEvent) {
		events++
		if !ev.Cached {
			t.Errorf("cell %s re-ran on the second pass", ev.Result.Key.Hash())
		}
	}
	before, _ := st.Bytes()
	_, sum, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != len(jobs) || sum.Ran != 0 {
		t.Fatalf("second run not fully cached: %+v", sum)
	}
	if events != len(jobs) {
		t.Fatalf("progress events = %d, want %d", events, len(jobs))
	}
	after, _ := st.Bytes()
	if !bytes.Equal(before, after) {
		t.Fatal("cached pass mutated the store")
	}
}

// TestDirtyCellRecomputed simulates editing one mechanism: dropping one
// cell from the store re-runs only that cell.
func TestDirtyCellRecomputed(t *testing.T) {
	jobs, err := testGrid(20_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	r := Runner{Store: st}
	first, _, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	dirty := jobs[5].Key().Hash()
	st.mu.Lock()
	delete(st.results, dirty)
	delete(st.keys, dirty)
	st.mu.Unlock()
	second, sum, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran != 1 || sum.Cached != len(jobs)-1 {
		t.Fatalf("dirty-cell pass: %+v", sum)
	}
	for i := range first {
		if first[i].Stats != second[i].Stats {
			t.Fatalf("cell %d changed across dirty re-run", i)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := Grid{Workloads: []string{"swim"}, Mechs: []Mech{{Kind: "SP"}}, Refs: 10_000}.Jobs()
	if _, _, err := (&Runner{Store: st}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := st.Bytes()
	b2, _ := re.Bytes()
	if !bytes.Equal(b1, b2) {
		t.Fatal("store changed across save/load")
	}
	if re.Len() != 1 {
		t.Fatalf("reloaded store has %d results", re.Len())
	}
}

func TestStoreRejectsTamperedEntries(t *testing.T) {
	dir := t.TempDir()
	jobs, _ := Grid{Workloads: []string{"swim"}, Mechs: []Mech{{Kind: "SP"}}, Refs: 10_000}.Jobs()
	results, _, err := (&Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Monolithic layout: rejected as a layout before any entry is read, so
	// a hand-edited key is refused along with the rest of the file.
	mono := storeFile{Schema: KeySchema, Results: map[string]Result{results[0].Key.Hash(): results[0]}}
	raw, err := json.Marshal(mono)
	if err != nil {
		t.Fatal(err)
	}
	monoPath := filepath.Join(dir, "mono.json")
	tampered := bytes.Replace(raw, []byte(`"refs":10000`), []byte(`"refs":99999`), 1)
	if err := os.WriteFile(monoPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	wantMonolithicRejected(t, monoPath, KeySchema)

	// Sharded layout: a tampered segment no longer matches the digest its
	// index committed, and fails the lookup that first reads it.
	shardPath := filepath.Join(dir, "shard.json")
	st, err := OpenStore(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(results[0])
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(shardPath + ".d")
	if err != nil || len(ents) != 1 {
		t.Fatalf("segment dir entries = %d (err=%v), want 1", len(ents), err)
	}
	segPath := filepath.Join(shardPath+".d", ents[0].Name())
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered = bytes.Replace(data, []byte(`"Misses":`), []byte(`"Misses":1`), 1)
	if bytes.Equal(data, tampered) {
		t.Fatal("segment tamper target not found")
	}
	if err := os.WriteFile(segPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(shardPath)
	if err != nil {
		t.Fatal(err) // the index alone is untouched
	}
	if _, _, err := re.Get(results[0].Key.Hash()); err == nil {
		t.Fatal("tampered segment satisfied a lookup")
	}

	// A key lives only in the index: a tampered index key no longer
	// hashes to the cell it names, and fails the lookup that loads the
	// (intact) segment.
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	index, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered = bytes.Replace(index, []byte(`"refs": 10000`), []byte(`"refs": 99999`), 1)
	if bytes.Equal(index, tampered) {
		t.Fatal("index tamper target not found")
	}
	if err := os.WriteFile(shardPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = OpenStore(shardPath)
	if err != nil {
		t.Fatal(err) // the key is still well-formed
	}
	if _, _, err := re.Get(results[0].Key.Hash()); err == nil {
		t.Fatal("tampered index key satisfied a lookup")
	}
}

func TestDeriveSeed(t *testing.T) {
	k1 := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 1000}.Key()
	k2 := Job{Source: WorkloadSource("mcf"), Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 1000}.Key()
	if DeriveSeed(0, k1) != 0 {
		t.Error("base 0 must keep the model's own stream seed")
	}
	s1, s1b, s2 := DeriveSeed(7, k1), DeriveSeed(7, k1), DeriveSeed(7, k2)
	if s1 == 0 || s1 != s1b {
		t.Error("derived seed not deterministic")
	}
	if s1 == s2 {
		t.Error("different cells derived the same seed")
	}
	// The seed actually changes the stream (and is itself reproducible).
	base := Job{Source: WorkloadSource("mcf"), Mech: Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
		Config: sim.Default(), Refs: 30_000}
	seeded := base
	seeded.Seed = DeriveSeed(7, base.Key())
	res, _, err := (&Runner{}).Run([]Job{base, seeded, seeded})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Stats == res[1].Stats {
		t.Error("derived seed did not perturb the stream")
	}
	if res[1].Stats != res[2].Stats {
		t.Error("seeded cell not reproducible")
	}
}

func TestRunnerErrors(t *testing.T) {
	if _, _, err := (&Runner{}).Run([]Job{{Source: WorkloadSource("no-such-app"), Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 100}}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, _, err := (&Runner{}).Run([]Job{{Source: WorkloadSource("swim"), Mech: Mech{Kind: "XX"},
		Config: sim.Default(), Refs: 100}}); err == nil {
		t.Error("invalid mechanism accepted")
	}
}

func TestEmitters(t *testing.T) {
	jobs, _ := Grid{Workloads: []string{"swim"}, Mechs: []Mech{{Kind: "DP", Rows: 256, Slots: 2}},
		Refs: 10_000}.Jobs()
	results, _, err := (&Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	tab := Table(results).String()
	for _, want := range []string{"source", "swim", "DP,256,D", "accuracy"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	if strings.Contains(tab, "cycles") {
		t.Error("functional results rendered timing columns")
	}
	csv := CSV(results)
	if !strings.HasPrefix(csv, "source,mech,") {
		t.Errorf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	js, err := JSON(results)
	if err != nil {
		t.Fatal(err)
	}
	var back []Result
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v", err)
	}
	if len(back) != len(results) || back[0].Stats != results[0].Stats {
		t.Error("JSON round-trip changed the results")
	}

	dt := DefaultTiming()
	timingJobs := []Job{{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"}, Config: sim.Default(),
		Refs: 10_000, Timing: &dt}}
	tres, _, err := (&Runner{}).Run(timingJobs)
	if err != nil {
		t.Fatal(err)
	}
	ttab := Table(tres).String()
	if !strings.Contains(ttab, "cycles") || !strings.Contains(ttab, "CPI") {
		t.Errorf("timing table missing cycle columns:\n%s", ttab)
	}
}
