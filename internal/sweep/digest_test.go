package sweep

import (
	"crypto/sha256"
	"encoding/hex"
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
