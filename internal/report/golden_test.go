package report_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tlbprefetch/internal/report"
	"tlbprefetch/internal/sweep"
)

// -update rewrites the golden files from the current output.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenStore sweeps the test grids — a functional mechanism × geometry
// grid plus a decoupled timing grid — with the given worker count. The
// rendered figures must not depend on that count.
func goldenStore(t *testing.T, workers int) *sweep.Store {
	t.Helper()
	store := sweep.NewStore()
	run := func(g sweep.Grid) {
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		r := sweep.Runner{Store: store, Workers: workers}
		if _, _, err := r.Run(jobs); err != nil {
			t.Fatal(err)
		}
	}
	run(sweep.Grid{
		Workloads:  []string{"swim", "mcf"},
		Mechs:      []sweep.Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, {Kind: "RP"}},
		TLBEntries: []int{64, 128},
		Refs:       20000,
	})
	run(sweep.Grid{
		Workloads: []string{"mcf"},
		Mechs:     []sweep.Mech{{Kind: "none"}, {Kind: "RP"}, {Kind: "DP", Rows: 256, Ways: 1, Slots: 2}},
		Refs:      20000,
		TimingAxes: sweep.TimingAxes{
			MissPenalties: []uint64{100, 200},
			MemOpRatios:   []float64{0.5},
			RefsPerCycle:  []uint64{1, 2},
		},
	})
	return store
}

// goldenRender produces every (filter, metric, format) rendering the test
// pins, as name → bytes.
func goldenRender(t *testing.T, store *sweep.Store) map[string]string {
	t.Helper()
	render := func(spec, metric string) *report.Figure {
		f, err := sweep.ParseFilter(spec)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := f.Select(store)
		if err != nil {
			t.Fatal(err)
		}
		fig, err := report.Build(rs, report.Options{Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	accuracy := render("timing=false", "accuracy")
	cpi := render("timing=true", "cpi")
	stalls := render("timing=true,refspercycle=2", "stallcycles")
	return map[string]string{
		"accuracy.txt":   accuracy.Text(),
		"accuracy.csv":   accuracy.CSV(),
		"accuracy.svg":   report.SVGDocument(accuracy),
		"cpi.txt":        cpi.Text(),
		"stallcpr.txt":   stalls.Text(),
		"stallcpr.csv":   stalls.CSV(),
		"multipanel.svg": report.SVGDocument(accuracy, cpi),
	}
}

// TestGoldenFigures pins the acceptance contract of the figure engine: the
// rendering of an identical store subset is byte-identical across runs and
// across runner worker counts, and matches the committed golden files.
func TestGoldenFigures(t *testing.T) {
	one := goldenRender(t, goldenStore(t, 1))
	eight := goldenRender(t, goldenStore(t, 8))
	for name, got := range one {
		if eight[name] != got {
			t.Errorf("%s differs between 1 and 8 workers", name)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run 'go test ./internal/report -run TestGoldenFigures -update' to create)", err)
		}
		if string(want) != got {
			t.Errorf("%s drifted from its golden file (re-run with -update if intended);\ngot:\n%s", name, got)
		}
	}
}

// TestGoldenRenderIsPure re-renders the same store twice and demands
// byte-identical output — the determinism half of the contract without
// touching disk.
func TestGoldenRenderIsPure(t *testing.T) {
	store := goldenStore(t, 4)
	a := goldenRender(t, store)
	b := goldenRender(t, store)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s differs between two renders of one store", name)
		}
	}
}
