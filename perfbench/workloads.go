package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// scale sets the per-cell reference budgets. The benchmark runs at
// benchScale; the tests run the same workloads at a tiny scale.
type scale struct {
	FigRefs uint64 // each paper-fig cell
	T3Refs  uint64 // each table3-space cell
	MixRefs uint64 // each mix-trace cell, split across the mix's two members
}

// benchScale sizes one measured run at roughly a second of sweep work on
// two workers, so a run of --seconds 10 takes several samples.
var benchScale = scale{FigRefs: 400_000, T3Refs: 150_000, MixRefs: 300_000}

// panel is one figure of a workload: the grid that declares its cells and
// the report metric it renders. A panel whose series differ in a key field
// report.Build does not label (DP's slot count) names its series in labels,
// one per cell of a source, and renders through experiments.FigureFromApps
// as cmd/experiments does.
type panel struct {
	title  string
	metric string
	grid   sweep.Grid
	labels []string
}

// figure is a declared panel: its cells' key hashes in grid order.
type figure struct {
	title  string
	metric string
	labels []string
	hashes []string
}

// plan is what set-up hands the measured run: the deduplicated cells of
// the workload's grid, the figures rendered from them and the store the
// run opens.
type plan struct {
	jobs   []sweep.Job
	hashes []string // jobs[i].Key().Hash()
	figs   []figure
	store  string
	warm   bool
	dir    string // the directory set-up wrote the plan's inputs to
}

// env is one benchmark run's context.
type env struct {
	dir   string // scratch directory for stores and traces
	seed  uint64
	scale scale
}

// store is the path of the store the workload's measured runs open.
func (e env) store() string { return filepath.Join(e.dir, "store.json") }

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	// setup records inputs and declares the grid, writing only under the
	// fresh directory e.dir.
	setup func(e env) (*plan, error)
}

var workloads = []workloadDef{
	{name: "paper-fig", setup: func(e env) (*plan, error) {
		return declare(paperFigPanels(e.scale), e.seed, e.store())
	}},
	{name: "table3-space", setup: func(e env) (*plan, error) {
		return declare(table3Panels(e.scale), e.seed, e.store())
	}},
	{name: "mix-trace", setup: func(e env) (*plan, error) {
		ps, err := mixPanels(e)
		if err != nil {
			return nil, err
		}
		return declare(ps, e.seed, e.store())
	}},
	{name: "warm-rerun", setup: setupWarm},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sourceSeed is the stream seed every cell of one synthetic source gets. A
// single seed per source (rather than Grid.Seed's per-cell derivation)
// keeps a source's cells on one shard, as in an unseeded sweep. Base 0 keeps
// the models' own paper-calibrated streams, so seed 0 reproduces the cells
// cmd/experiments and cmd/tlbsweep compute.
func sourceSeed(base uint64, name string) uint64 {
	if base == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	x := base ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// declare expands the panels into one deduplicated cell list (a cell shared
// by two figures runs once) with the per-source seeds applied.
func declare(panels []panel, seed uint64, store string) (*plan, error) {
	p := &plan{store: store}
	seen := make(map[string]bool)
	for _, pn := range panels {
		jobs, err := pn.grid.Jobs()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pn.title, err)
		}
		f := figure{title: pn.title, metric: pn.metric, labels: pn.labels}
		for _, j := range jobs {
			if j.Mix == nil && !j.Source.IsTrace() {
				j.Seed = sourceSeed(seed, j.Source.Workload)
			}
			h := j.Key().Hash()
			f.hashes = append(f.hashes, h)
			if !seen[h] {
				seen[h] = true
				p.jobs = append(p.jobs, j)
				p.hashes = append(p.hashes, h)
			}
		}
		p.figs = append(p.figs, f)
	}
	return p, nil
}

// mechs converts experiment mechanism configurations into sweep mechanisms
// with the harness default of s=2 prediction slots.
func mechs(cfgs []experiments.MechConfig) []sweep.Mech {
	out := make([]sweep.Mech, len(cfgs))
	for i, c := range cfgs {
		slots := c.Slots
		if slots == 0 {
			slots = experiments.DefaultOptions().Slots
		}
		out[i] = sweep.Mech{Kind: c.Kind, Rows: c.Rows, Ways: c.Ways, Slots: slots}.Normalize()
	}
	return out
}

func dp256(slots int) sweep.Mech { return sweep.Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: slots} }

// paperFigPanels declares Figure 7, the four Figure 9 panels and the
// ext-modern comparison exactly as cmd/experiments does.
func paperFigPanels(sc scale) []panel {
	var spec []string
	for _, w := range workload.Suite("SPEC") {
		spec = append(spec, w.Name)
	}
	fig9 := experiments.Fig9AppNames()
	var geom []experiments.MechConfig
	for _, rc := range [][2]int{
		{1024, 1}, {1024, 4}, {1024, 2},
		{512, 1}, {512, 4},
		{256, 1}, {256, 4}, {256, 256},
		{128, 1}, {128, 128},
		{64, 1}, {64, 64},
		{32, 1}, {32, 32},
	} {
		geom = append(geom, experiments.MechConfig{Kind: "DP", Rows: rc[0], Ways: rc[1]})
	}
	modern := []experiments.MechConfig{
		{Kind: "SP"}, {Kind: "ASP", Rows: 256, Ways: 1}, {Kind: "MP", Rows: 256, Ways: 1},
		{Kind: "RP"}, {Kind: "DP", Rows: 256, Ways: 1}, {Kind: "STMS", Rows: 16384, Ways: 1},
		{Kind: "MASP", Rows: 256, Ways: 1}, {Kind: "SBFP"},
	}
	r := sc.FigRefs
	return []panel{
		{title: "Figure 7: prediction accuracy, SPEC CPU2000", metric: "accuracy",
			grid: sweep.Grid{Workloads: spec, Mechs: mechs(experiments.Fig7Configs()), Refs: r}},
		{title: "Figure 9a: DP accuracy vs table size/associativity", metric: "accuracy",
			grid: sweep.Grid{Workloads: fig9, Mechs: mechs(geom), Refs: r}},
		{title: "Figure 9b: DP accuracy vs prediction slots per row", metric: "accuracy",
			grid:   sweep.Grid{Workloads: fig9, Mechs: []sweep.Mech{dp256(2), dp256(4), dp256(6)}, Refs: r},
			labels: []string{"s=2", "s=4", "s=6"}},
		{title: "Figure 9c: DP accuracy vs prefetch buffer size", metric: "accuracy",
			grid: sweep.Grid{Workloads: fig9, Mechs: []sweep.Mech{dp256(2)}, Buffers: []int{16, 32, 64}, Refs: r}},
		{title: "Figure 9d: DP accuracy vs TLB size", metric: "accuracy",
			grid: sweep.Grid{Workloads: fig9, Mechs: []sweep.Mech{dp256(2)}, TLBEntries: []int{64, 128, 256}, Refs: r}},
		{title: "Extension F: 2002 mechanisms vs modern successors", metric: "accuracy",
			grid: sweep.Grid{Workloads: fig9, Mechs: mechs(modern), Refs: r}},
	}
}

// table3Panels declares the table3-space design space: the Table 3 apps ×
// {none, RP, DP} × every point of the default timing axes.
func table3Panels(sc scale) []panel {
	return []panel{{title: "Table 3 design space: cycles per reference", metric: "cpi", grid: sweep.Grid{
		Workloads:  experiments.Table3AppNames(),
		Mechs:      []sweep.Mech{{Kind: "none"}, {Kind: "RP"}, dp256(2)},
		TimingAxes: experiments.DefaultTable3SpaceAxes(),
		Refs:       sc.T3Refs,
	}}}
}

// mixMembers are the recorded sources of the mix-trace workload, paired
// into mixes in this order.
var mixMembers = []string{"galgel", "gcc", "mcf", "twolf"}

// mixPanels records the mix members as v2 traces and declares the mix grid
// over them.
func mixPanels(e env) ([]panel, error) {
	srcs, err := recordTraces(e, filepath.Join(e.dir, "traces"))
	if err != nil {
		return nil, err
	}
	g := sweep.Grid{
		Mixes: []sweep.Mix{
			{Sources: []sweep.Source{srcs[0], srcs[1]}},
			{Sources: []sweep.Source{srcs[2], srcs[3]}},
		},
		Quanta:   []uint64{5_000, 20_000, 100_000},
		Policies: []string{"retain", "flush", "per-process"},
		ASIDs:    []string{"flush", "tagged"},
		Mechs:    []sweep.Mech{dp256(2), {Kind: "RP"}, {Kind: "SBFP"}},
		Refs:     e.scale.MixRefs,
	}
	return []panel{
		{title: "Mixes: prefetch accuracy by scheduler policy", metric: "accuracy", grid: g},
		{title: "Mixes: miss coverage by scheduler policy", metric: "coverage", grid: g},
	}, nil
}

// recordTraces writes each mix member's share of a mix cell as a counted v2
// trace, generated at the member's source seed, and returns the sources.
func recordTraces(e env, dir string) ([]sweep.Source, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := (e.scale.MixRefs + 1) / 2 // the larger member share of a two-member mix
	out := make([]sweep.Source, len(mixMembers))
	for i, name := range mixMembers {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if s := sourceSeed(e.seed, name); s != 0 {
			w.Seed = s
		}
		path := filepath.Join(dir, name+".trc")
		if err := writeTrace(path, w, n); err != nil {
			return nil, err
		}
		src, err := sweep.TraceSource(path)
		if err != nil {
			return nil, err
		}
		out[i] = src
	}
	return out, nil
}

func writeTrace(path string, w workload.Workload, n uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw, err := trace.NewBlockWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := workload.GenerateTo(w, n, bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.FinishCount(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("recording %s: %w", path, err)
	}
	return nil
}

// setupWarm fills one store with the three cold grids; the measured run
// re-opens it and re-declares them, so every cell is served from cache.
func setupWarm(e env) (*plan, error) {
	mix, err := mixPanels(e)
	if err != nil {
		return nil, err
	}
	panels := append(paperFigPanels(e.scale), table3Panels(e.scale)...)
	p, err := declare(append(panels, mix...), e.seed, e.store())
	if err != nil {
		return nil, err
	}
	p.warm = true
	st, err := sweep.OpenStore(p.store)
	if err != nil {
		return nil, err
	}
	r := sweep.Runner{Store: st, Workers: sweepWorkers()}
	if _, _, err := r.Run(p.jobs); err != nil {
		return nil, err
	}
	if err := st.Save(); err != nil {
		return nil, err
	}
	return p, nil
}

// workloadNames lists the workloads in definition order.
func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
