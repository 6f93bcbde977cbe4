package sweep

import (
	"strings"
	"testing"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/workload"
)

func filterTestStore(t *testing.T) *Store {
	t.Helper()
	g := Grid{
		Workloads:  []string{"swim", "mcf"},
		Mechs:      []Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, {Kind: "RP"}},
		TLBEntries: []int{64, 128},
		Refs:       5_000,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	tg := Grid{
		Workloads: []string{"swim"},
		Mechs:     []Mech{{Kind: "none"}, {Kind: "RP"}},
		Refs:      5_000,
		// The default point (sim.ScaledTiming(100).Timing == DefaultTiming) and a
		// slow point at twice the penalty.
		TimingAxes: TimingAxes{MissPenalties: []uint64{100, 200}},
	}
	tjobs, err := tg.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, _, err := (&Runner{Store: st}).Run(append(jobs, tjobs...)); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFilterParseErrors(t *testing.T) {
	if _, err := ParseFilter("nonsense"); err == nil || !strings.Contains(err.Error(), "field=value") {
		t.Errorf("malformed clause accepted (err=%v)", err)
	}
	if _, err := ParseFilter("bogusfield=3"); err == nil || !strings.Contains(err.Error(), "unknown filter field") {
		t.Errorf("unknown field accepted (err=%v)", err)
	}
	if f, err := ParseFilter(""); err != nil || !f.Match(Key{}) {
		t.Errorf("empty filter should match everything (err=%v)", err)
	}
	// Value typos must error at parse time, not silently match nothing.
	for _, spec := range []string{"entries=12x", "timing=yes", "misspenalty=2OO"} {
		if _, err := ParseFilter(spec); err == nil || !strings.Contains(err.Error(), "bad value") {
			t.Errorf("%s: bad value accepted (err=%v)", spec, err)
		}
	}
}

func TestFilterSelect(t *testing.T) {
	st := filterTestStore(t)

	cases := []struct {
		spec string
		want int
	}{
		{"workload=swim", 4 + 4},          // 4 functional + 4 timing cells
		{"workload=swim,timing=false", 4}, //
		{"mech=DP", 4},                    // DP is functional-only here: 2 workloads × 2 entries
		{"mech=DP,entries=64", 2},
		{"mech=DP,entries=64,workload=mcf", 1},
		{"misspenalty=200", 2},         // the slow timing point
		{"mech=rp,misspenalty=200", 1}, // kind matches case-insensitively
		{"workload=nobody", 0},
	}
	for _, c := range cases {
		f, err := ParseFilter(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		got, err := f.Select(st)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if len(got) != c.want {
			t.Errorf("%s: selected %d cells, want %d", c.spec, len(got), c.want)
		}
		for _, r := range got {
			if !f.Match(r.Key) {
				t.Errorf("%s: selected non-matching key %+v", c.spec, r.Key)
			}
		}
	}

	// Selection order is deterministic and hash-free: sorted by key fields.
	f, _ := ParseFilter("workload=swim,timing=false")
	got, err := f.Select(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if keyLess(got[i].Key, got[i-1].Key) {
			t.Fatal("selection not sorted by key fields")
		}
	}
}

func TestDiffStores(t *testing.T) {
	a := filterTestStore(t)
	b := filterTestStore(t)
	d, err := DiffStores(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("identical stores diffed: %s", d.Summary())
	}

	// Remove one cell from b, corrupt another.
	rs, err := b.Results()
	if err != nil {
		t.Fatal(err)
	}
	victim := rs[0].Key.Hash()
	b.mu.Lock()
	delete(b.results, victim)
	delete(b.keys, victim)
	mutated := rs[1]
	mutated.Stats.Misses++
	b.results[rs[1].Key.Hash()] = mutated
	b.mu.Unlock()

	d, err = DiffStores(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnlyA) != 1 || len(d.OnlyB) != 0 || len(d.Changed) != 1 {
		t.Fatalf("diff = %d/%d/%d cells, want 1 only-A and 1 changed", len(d.OnlyA), len(d.OnlyB), len(d.Changed))
	}
	if d.Empty() {
		t.Fatal("non-empty diff reported Empty")
	}
	if s := d.Summary(); !strings.Contains(s, "1 changed") {
		t.Errorf("summary missing changed count: %s", s)
	}

	// A mix cell is named by its mix and scheduler point, so two cells
	// that differ only in policy read apart.
	mixJobs, err := mixGrid(10_000).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	mixA := NewStore()
	if _, _, err := (&Runner{Store: mixA}).Run(mixJobs[:2]); err != nil {
		t.Fatal(err)
	}
	d, err = DiffStores(mixA, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summary()
	for _, want := range []string{
		"  A galgel+gcc DP,256,D tlb=128 buf=16 refs=10000 q=5000 policy=retain asid=flush\n",
		"  A galgel+gcc DP,256,D tlb=128 buf=16 refs=10000 q=5000 policy=flush asid=flush\n",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("mix summary missing %q:\n%s", want, s)
		}
	}
}

func TestStoreGC(t *testing.T) {
	st := filterTestStore(t)
	total := st.Len()

	g := Grid{
		Workloads:  []string{"swim"},
		Mechs:      []Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}},
		TLBEntries: []int{64, 128},
		Refs:       5_000,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	keep := make(map[string]bool)
	for _, j := range jobs {
		keep[j.Key().Hash()] = true
	}
	dropped, err := st.GC(keep)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != total-len(jobs) || st.Len() != len(jobs) {
		t.Fatalf("gc dropped %d of %d, kept %d; want to keep exactly %d", dropped, total, st.Len(), len(jobs))
	}
	// The kept cells still satisfy the grid from cache.
	_, sum, err := (&Runner{Store: st}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != len(jobs) {
		t.Fatalf("gc evicted referenced cells: %+v", sum)
	}
}

// TestTimingNormalizeCanonicalizesSpellings pins the Key contract for the
// timing axis: the zero spellings sim.TimingConfig treats as defaults
// (RefsPerCycle 0 == 1, MemOpOccupancy 0 == MemOpLatency) must
// content-address to the same cell as their explicit forms.
func TestTimingNormalizeCanonicalizesSpellings(t *testing.T) {
	implicit := sim.Timing{MissPenalty: 100, BufferHitPenalty: 65, MemOpLatency: 50,
		MemOpOccupancy: 0, CyclesPerRef: 1, RefsPerCycle: 0, RPSkipWhenBusy: true}
	explicit := implicit
	explicit.MemOpOccupancy = 50
	explicit.RefsPerCycle = 1

	job := func(tm sim.Timing) Job {
		return Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"},
			Config: sim.Default(), Refs: 10_000, Timing: &tm}
	}
	if job(implicit).Key().Hash() != job(explicit).Key().Hash() {
		t.Fatal("equivalent timing spellings content-address to different cells")
	}
	distinct := explicit
	distinct.MemOpOccupancy = 12
	if job(explicit).Key().Hash() == job(distinct).Key().Hash() {
		t.Fatal("distinct occupancy hashed identically")
	}
	// And the two spellings really do simulate identically.
	res, _, err := (&Runner{}).Run([]Job{job(implicit), job(explicit)})
	if err != nil {
		t.Fatal(err)
	}
	if *res[0].Timing != *res[1].Timing {
		t.Fatal("equivalent timing spellings produced different cycle counts")
	}
}

// TestScaledTimingKeepsCostRatios pins the latency-axis calibration: the
// walk-fraction costs scale with the penalty, the default point is exactly
// DefaultTiming (so table3-lat shares table3's cells), and a buffer hit is
// never costlier than the demand fetch it replaces.
func TestScaledTimingKeepsCostRatios(t *testing.T) {
	if got := sim.ScaledTiming(100).Timing; got != DefaultTiming() {
		t.Fatalf("sim.ScaledTiming(100).Timing = %+v, want the default point %+v", got, DefaultTiming())
	}
	for _, p := range []uint64{10, 50, 200, 400} {
		s := sim.ScaledTiming(p).Timing
		if s.MissPenalty != p {
			t.Fatalf("penalty %d: MissPenalty = %d", p, s.MissPenalty)
		}
		if s.BufferHitPenalty >= s.MissPenalty {
			t.Errorf("penalty %d: buffer hit (%d cycles) costs at least a demand fetch", p, s.BufferHitPenalty)
		}
		if s.MemOpLatency == 0 || s.MemOpOccupancy == 0 {
			t.Errorf("penalty %d: zeroed memop constants %+v", p, s)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("penalty %d: scaled point invalid: %v", p, err)
		}
	}
}

// TestTimingValidateRejectsOversizedOccupancy pins the panic guard: an
// occupancy longer than the operation latency must fail validation (at
// both the sweep and sim layers) instead of panicking inside the memory
// channel in a worker goroutine.
func TestTimingValidateRejectsOversizedOccupancy(t *testing.T) {
	bad := DefaultTiming()
	bad.MemOpLatency = 5 // occupancy stays 12
	if err := bad.Validate(); err == nil {
		t.Error("sim.Timing with occupancy > latency validated")
	}
	if err := bad.Config(sim.Default()).Validate(); err == nil {
		t.Error("sim.TimingConfig with occupancy > latency validated")
	}
	job := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 1_000, Timing: &bad}
	if _, _, err := (&Runner{}).Run([]Job{job}); err == nil {
		t.Error("runner accepted the invalid timing job")
	}
}

// TestRunnerNonDefaultTimingMatchesDirect is the satellite bit-equality
// check: a cell with a fully custom TimingConfig must match a hand-built
// sim.TimingSimulator exactly, and must content-address away from the
// default timing point.
func TestRunnerNonDefaultTimingMatchesDirect(t *testing.T) {
	custom := sim.Timing{
		MissPenalty:      250,
		BufferHitPenalty: 20,
		MemOpLatency:     35,
		MemOpOccupancy:   7,
		CyclesPerRef:     2,
		RefsPerCycle:     1,
		RPSkipWhenBusy:   false,
	}
	cfg := sim.Default()
	job := Job{Source: WorkloadSource("mcf"), Mech: Mech{Kind: "RP"}, Config: cfg, Refs: 40_000, Timing: &custom}

	dt := DefaultTiming()
	defJob := job
	defJob.Timing = &dt
	if job.Key().Hash() == defJob.Key().Hash() {
		t.Fatal("custom timing point content-addressed to the default cell")
	}

	res, _, err := (&Runner{}).Run([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Timing == nil {
		t.Fatal("timing job returned no timing stats")
	}

	s := sim.NewTiming(custom.Config(cfg), job.Mech.Build())
	w, _ := workload.ByName("mcf")
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

// TestParseFilterTable drives the parser through its edge cases: empty
// and whitespace-only specs, repeated fields, field-name normalization,
// and malformed clauses.
func TestParseFilterTable(t *testing.T) {
	cases := []struct {
		name, spec string
		wantErr    string // substring; "" means the spec must parse
	}{
		{"empty", "", ""},
		{"whitespace and stray commas", " ,  , ", ""},
		{"single clause", "workload=swim", ""},
		{"repeated field", "entries=64,entries=128", ""},
		{"field case and padding", " WORKLOAD = swim ", ""},
		{"trace digest value", "trace=ABC123", ""},
		{"full digest value", "trace=" + strings.Repeat("ab", 32), ""},
		{"bare word", "nonsense", "field=value"},
		{"empty field name", "=5", "unknown filter field"},
		{"unknown field", "bogus=3", "unknown filter field"},
		{"empty int value", "entries=", "bad value"},
		{"typo int value", "entries=12x", "bad value"},
		{"typo bool value", "timing=yes", "bad value"},
		{"letter in uint", "misspenalty=2OO", "bad value"},
		{"negative refs", "refs=-1", "bad value"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseFilter(c.spec)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("ParseFilter(%q): %v", c.spec, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("ParseFilter(%q) err = %v, want substring %q", c.spec, err, c.wantErr)
			}
		})
	}
}

// TestFilterMatchTable pins Match semantics directly on hand-built keys —
// conjunction of repeated fields, trace-digest prefix matching (case
// folded), and the workload/trace field split.
func TestFilterMatchTable(t *testing.T) {
	digest := strings.Repeat("ab", 16) + strings.Repeat("cd", 16)
	synth := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 1000}.Key()
	traced := Job{Source: Source{TraceSHA256: digest}, Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 1000}.Key()

	cases := []struct {
		name, spec string
		key        Key
		want       bool
	}{
		{"empty matches synth", "", synth, true},
		{"empty matches trace", "", traced, true},
		{"repeated field is a conjunction", "entries=64,entries=128", synth, false},
		{"repeated identical clauses", "workload=swim,workload=swim", synth, true},
		{"workload never matches a trace cell", "workload=swim", traced, false},
		{"trace never matches a synth cell", "trace=" + digest[:8], synth, false},
		{"trace digest prefix", "trace=" + digest[:12], traced, true},
		{"trace digest prefix case-folded", "trace=" + strings.ToUpper(digest[:12]), traced, true},
		{"trace full digest", "trace=" + digest, traced, true},
		{"trace wrong prefix", "trace=ffff", traced, false},
		{"source label of a trace", "source=trace:" + digest[:12], traced, true},
		{"source label of a workload", "source=swim", synth, true},
		{"conjunction across fields", "workload=swim,entries=128,timing=false", synth, true},
		{"conjunction with one miss", "workload=swim,entries=64", synth, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := ParseFilter(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Match(c.key); got != c.want {
				t.Fatalf("Match(%q) = %v, want %v", c.spec, got, c.want)
			}
		})
	}
}

// TestTimingNormalizeTable pins every canonical-spelling pair the timing
// axis accepts: RefsPerCycle 0 means 1, MemOpOccupancy 0 means fully
// serialized (= MemOpLatency), explicit values survive, and Normalize is
// idempotent.
func TestTimingNormalizeTable(t *testing.T) {
	base := sim.Timing{MissPenalty: 100, BufferHitPenalty: 65, MemOpLatency: 50,
		MemOpOccupancy: 12, CyclesPerRef: 1, RefsPerCycle: 2, RPSkipWhenBusy: true}
	with := func(mut func(*sim.Timing)) sim.Timing { t := base; mut(&t); return t }

	cases := []struct {
		name     string
		in, want sim.Timing
	}{
		{"already canonical", base, base},
		{"zero refs-per-cycle means one",
			with(func(t *sim.Timing) { t.RefsPerCycle = 0 }),
			with(func(t *sim.Timing) { t.RefsPerCycle = 1 })},
		{"zero occupancy means serialized",
			with(func(t *sim.Timing) { t.MemOpOccupancy = 0 }),
			with(func(t *sim.Timing) { t.MemOpOccupancy = 50 })},
		{"both zero spellings at once",
			with(func(t *sim.Timing) { t.RefsPerCycle = 0; t.MemOpOccupancy = 0 }),
			with(func(t *sim.Timing) { t.RefsPerCycle = 1; t.MemOpOccupancy = 50 })},
		{"explicit occupancy survives",
			with(func(t *sim.Timing) { t.MemOpOccupancy = 7 }),
			with(func(t *sim.Timing) { t.MemOpOccupancy = 7 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.in.Normalize()
			if got != c.want {
				t.Fatalf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
			}
			if again := got.Normalize(); again != got {
				t.Fatalf("Normalize not idempotent: %+v -> %+v", got, again)
			}
		})
	}
}

// TestFilterClauseMatches pins the zero-match diagnostic machinery: per-
// clause solo counts over a key set, and Empty for the no-clause filter.
func TestFilterClauseMatches(t *testing.T) {
	keys := []Key{
		Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 1000}.Key(),
		Job{Source: WorkloadSource("mcf"), Mech: Mech{Kind: "RP"}, Config: sim.Default(), Refs: 1000}.Key(),
		Job{Source: WorkloadSource("mcf"), Mech: Mech{Kind: "DP", Rows: 256, Slots: 2}, Config: sim.Default(), Refs: 1000}.Key(),
	}
	f, err := ParseFilter("mech=RP,workload=mcf,entries=64")
	if err != nil {
		t.Fatal(err)
	}
	if f.Empty() {
		t.Error("three-clause filter reports Empty")
	}
	empty, _ := ParseFilter("")
	if !empty.Empty() {
		t.Error("no-clause filter should be Empty")
	}
	got := f.ClauseMatches(keys)
	want := []ClauseMatch{
		{Clause: "mech=RP", Matches: 2},
		{Clause: "workload=mcf", Matches: 2},
		{Clause: "entries=64", Matches: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("ClauseMatches = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clause %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFilterNewTimingFields pins the refspercycle and memopocc fields the
// design-space studies filter on.
func TestFilterNewTimingFields(t *testing.T) {
	tm := sim.Timing{MissPenalty: 100, BufferHitPenalty: 65, MemOpLatency: 50,
		MemOpOccupancy: 12, CyclesPerRef: 1, RefsPerCycle: 2, RPSkipWhenBusy: true}
	timed := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 1000, Timing: &tm}.Key()
	functional := Job{Source: WorkloadSource("swim"), Mech: Mech{Kind: "RP"},
		Config: sim.Default(), Refs: 1000}.Key()

	cases := []struct {
		spec string
		key  Key
		want bool
	}{
		{"refspercycle=2", timed, true},
		{"refspercycle=1", timed, false},
		{"refspercycle=2", functional, false},
		{"memopocc=12", timed, true},
		{"memopocc=50", timed, false},
		{"memopocc=12", functional, false},
	}
	for _, c := range cases {
		f, err := ParseFilter(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Match(c.key); got != c.want {
			t.Errorf("Match(%q, timing=%v) = %v, want %v", c.spec, c.key.Timing != nil, got, c.want)
		}
	}
}
