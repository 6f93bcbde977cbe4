package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// everyKindMechs is each registry kind at its figure operating point (the
// throughputMechs rows of the root bench_test.go).
var everyKindMechs = map[string]Mech{
	"none":  {Kind: "none"},
	"SP":    {Kind: "SP"},
	"SP-A":  {Kind: "SP-A"},
	"ASP":   {Kind: "ASP", Rows: 256, Ways: 1},
	"MP":    {Kind: "MP", Rows: 256, Ways: 1, Slots: 2},
	"RP":    {Kind: "RP"},
	"RP3":   {Kind: "RP3"},
	"DP":    {Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
	"DP-PC": {Kind: "DP-PC", Rows: 256, Ways: 1, Slots: 2},
	"DP2":   {Kind: "DP2", Rows: 256, Ways: 1, Slots: 2},
	"STMS":  {Kind: "STMS", Rows: 16384, Ways: 1, Slots: 2},
	"MASP":  {Kind: "MASP", Rows: 256, Ways: 1, Slots: 2},
	"SBFP":  {Kind: "SBFP"},
}

// everyKindDigest is the SHA-256 of sweep.JSON over the every-kind grid's
// results, functional cells first. A change to it is a result change: only
// a change meant to move results may update it, and says why.
const everyKindDigest = "588910bef3308167555356f8abcd53c1449e9229122d386d61e506b57a6a6b43"

// TestEveryKindDigest pins the result bytes of every registry kind, on two
// hot-miss workloads, under the functional simulator and at the paper's
// Table 3 timing point — including the kinds no paper experiment runs
// (SP-A, RP3).
func TestEveryKindDigest(t *testing.T) {
	g := Grid{Workloads: []string{"mcf", "twolf"}, Refs: 200_000}
	for _, kind := range Kinds() {
		m, ok := everyKindMechs[kind]
		if !ok {
			t.Fatalf("registry kind %q has no everyKindMechs row", kind)
		}
		g.Mechs = append(g.Mechs, m)
	}
	functional, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	g.TimingAxes = TimingAxes{MissPenalties: []uint64{DefaultTiming().MissPenalty}}
	timed, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := (&Runner{Workers: 2}).Run(append(functional, timed...))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * len(Kinds()); len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	// The cycle model applies RP's skip-when-busy rule by mechanism name,
	// so RP3 (which reports Name "RP") must skip batches too.
	for _, r := range results {
		if r.Timing != nil && (r.Key.Mech.Kind == "RP" || r.Key.Mech.Kind == "RP3") && r.Timing.SkippedPref == 0 {
			t.Errorf("%s %s: no prefetch batch skipped by RP's busy rule", r.Key.SourceLabel(), r.Key.Mech.Kind)
		}
	}
	data, err := JSON(results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != everyKindDigest {
		t.Errorf("every-kind result digest = %s, want %s", got, everyKindDigest)
	}
}

// gridDigest runs a grid's cells on two workers and returns the SHA-256 of
// sweep.JSON over the results.
func gridDigest(t *testing.T, g Grid) string {
	t.Helper()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := (&Runner{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := JSON(results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGridDigests pins the result bytes of the paths the every-kind grid
// does not reach: trace decoding in all three encodings, the cycle model's
// axes, every mix scheduler point, single sources mixed with mixes in one
// grid, and timed shards whose cells share mechanism instances beside a
// feedback kind (SP-A) that must not. Like everyKindDigest, a change to a
// digest is a result change.
func TestGridDigests(t *testing.T) {
	dir := t.TempDir()
	record := func(name, workloadName, format string, refs uint64) Source {
		return recordTraceFormat(t, filepath.Join(dir, name), workloadName, format, refs)
	}
	dp := Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}
	mcf := record("mcf.trc", "mcf", "v2", 20_000)
	cases := []struct {
		name   string
		grid   Grid
		digest string
	}{
		{"trace-formats", Grid{
			Traces: []Source{
				record("gap.v1", "gap", "v1", 30_000),
				record("gap.v2", "gap", "v2", 30_000),
				record("gap.txt", "gap", "text", 30_000),
			},
			Mechs:  []Mech{dp, {Kind: "RP"}, {Kind: "SBFP"}},
			Refs:   25_000,
			Warmup: 5_000,
		}, "eb85cc93d9f9fda1436bbc363e190765650841e18281c9b8e6ddfe3b76fcce01"},
		{"timing-axes", Grid{
			Workloads: []string{"mcf"},
			Mechs:     []Mech{{Kind: "none"}, dp, {Kind: "RP"}},
			Refs:      40_000,
			TimingAxes: TimingAxes{
				MissPenalties: []uint64{50, 200},
				MemOpRatios:   []float64{0.25, 0.5},
				RefsPerCycle:  []uint64{1, 3},
			},
		}, "176658c3d21ad79ef454ecd4c0da118ced1ff7fb59c131a7c69bc6d0bd893bae"},
		{"mix-schedulers", Grid{
			Mixes:    []Mix{{Sources: []Source{WorkloadSource("galgel"), WorkloadSource("gcc")}}},
			Quanta:   []uint64{2_000, 9_000},
			Policies: []string{"retain", "flush", "per-process"},
			ASIDs:    []string{"flush", "tagged"},
			Mechs:    []Mech{dp, {Kind: "RP"}},
			Refs:     30_000,
		}, "3c66fce23e7f93c2b954f49738a9096435e56762c07015af34c5c169d990bbb0"},
		{"sources-and-mixes", Grid{
			Workloads: []string{"swim"},
			Traces:    []Source{mcf},
			Mixes: []Mix{
				{Sources: []Source{WorkloadSource("swim"), mcf}},
				{Sources: []Source{WorkloadSource("galgel"), WorkloadSource("gcc")}},
			},
			Quanta:     []uint64{5_000},
			Mechs:      []Mech{dp, {Kind: "RP"}},
			TLBEntries: []int{64, 128},
			Buffers:    []int{8, 16},
			Refs:       20_000,
		}, "1dd0e135ee05c23f0bb5c96a48dae8b71d0daf919fb6f5f85f6a566888ef6667"},
		{"shared-mechanisms", Grid{
			Workloads:  []string{"swim", "mcf"},
			Mechs:      []Mech{dp, {Kind: "RP"}, {Kind: "SP-A"}, {Kind: "SBFP"}},
			Buffers:    []int{8, 16},
			TimingAxes: TimingAxes{MissPenalties: []uint64{50, 100, 200}},
			Refs:       20_000,
		}, "8706294efce42efd6c3e935204397ad3ce53a57a885d5f05e9ccee4ada01b1d8"},
	}
	for _, c := range cases {
		if got := gridDigest(t, c.grid); got != c.digest {
			t.Errorf("%s: result digest = %s, want %s", c.name, got, c.digest)
		}
	}
}
