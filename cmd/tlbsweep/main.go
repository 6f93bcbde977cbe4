// Command tlbsweep runs a declarative parameter-grid sweep: the cross
// product of sources (synthetic workloads, recorded traces, and
// multiprogrammed mixes of either) × mechanisms × table shapes × TLB
// geometries × buffer sizes × page sizes × scheduler points (quantum ×
// table policy × ASID mode, mix cells) × timing points, sharded across the
// CPU by internal/sweep, with results landing in a content-addressed JSON
// store. Re-running a sweep against the same store only simulates the cells
// that are not already present, so growing a study — more workloads,
// another buffer size, a new miss-penalty point — costs only the new cells.
//
// Besides sweeping, tlbsweep is the store's lifecycle tool: -where renders
// a stored subset without re-declaring the grid, -figure renders a subset
// as a paper-style grouped-bar figure (text, CSV or SVG via internal/
// report), -gc drops cells the current grid no longer references, and
// -diff compares two stores.
//
// A grid can also span hosts: -serve turns tlbsweep into the coordinator
// of a lease-based job feed (internal/sweepd) and -worker joins a feed,
// pulling batches of cells, simulating them on the local sharded path, and
// uploading fingerprinted results. The merged store is byte-identical to a
// single-process run of the same grid.
//
// Examples:
//
//	tlbsweep -workloads swim,mcf -mechs DP,RP,ASP -entries 64,128,256 -buffer 8,16,32
//	tlbsweep -workloads SPEC -mechs DP -rows 32,64,128,256,512,1024 -store dp-table.json
//	tlbsweep -workloads mcf,vpr -mechs SP,DP,STMS,MASP,SBFP -store modern.json
//	tlbsweep -mix galgel+gcc -mechs DP -quantum 5000,20000 -policy retain,flush,per-process -store mix.json
//	tlbsweep -store mix.json -figure accuracy -where quantum=20000 -format svg > policies.svg
//	tlbsweep -trace app.trc -mechs none,RP,DP -miss-penalty 50,100,200 -store lat.json
//	tlbsweep -trace app.trc -mechs none,RP,DP -miss-penalty 100,200 -memop-ratio 0.25,0.5,1 -refs-per-cycle 1,2 -store space.json
//	tlbsweep -store lat.json -where mech=DP,misspenalty=200 -format csv
//	tlbsweep -store lat.json -figure accuracy -where misspenalty=200 -format svg > fig.svg
//	tlbsweep -workloads mcf -mechs DP -store sweep.json -gc
//	tlbsweep -store a.json -diff b.json
//	tlbsweep -serve 127.0.0.1:9177 -workloads all -mechs DP,RP -store grid.json
//	tlbsweep -worker http://coordinator:9177 -workers 8
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"tlbprefetch/internal/prof"
	"tlbprefetch/internal/report"
	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

func main() {
	var (
		workloads   = flag.String("workloads", "", "comma-separated workload names, suite names (SPEC, MediaBench, Etch, PointerIntensive) or 'all'")
		traces      = flag.String("trace", "", "comma-separated trace files added to the source axis (digested into the keys)")
		mixes       = flag.String("mix", "", "comma-separated multiprogrammed mixes, each '+'-joined members (workload names or trace files), e.g. galgel+gcc")
		quanta      = flag.String("quantum", "", "mix context-switch quantum axis in references (default 20000)")
		policies    = flag.String("policy", "", "mix prediction-table policy axis: retain, flush, per-process (default retain)")
		asids       = flag.String("asid", "", "mix translation treatment axis: flush (TLB+buffer emptied per switch) or tagged (default flush)")
		mechs       = flag.String("mechs", "DP", "comma-separated mechanism kinds: "+strings.Join(sweep.Kinds(), ", "))
		rows        = flag.String("rows", "256", "prediction-table rows axis (table mechanisms)")
		ways        = flag.String("ways", "1", "prediction-table associativity axis (table mechanisms)")
		slots       = flag.String("slots", "2", "prediction slots per row axis (DP/MP families)")
		entries     = flag.String("entries", "128", "TLB entries axis")
		tlbWays     = flag.String("tlbways", "0", "TLB associativity axis (0 = fully associative)")
		buffers     = flag.String("buffer", "16", "prefetch buffer entries axis")
		pageShift   = flag.String("pageshift", "12", "log2 page size axis")
		refs        = flag.Uint64("refs", 1_000_000, "references measured per cell")
		warmup      = flag.Uint64("warmup", 0, "references simulated before the counters reset")
		seed        = flag.Uint64("seed", 0, "base seed: 0 keeps the models' paper-calibrated streams, nonzero derives an independent per-cell stream seed")
		timing      = flag.Bool("timing", false, "run every cell under the cycle model (paper Table 3)")
		missPenalty = flag.String("miss-penalty", "", "TLB miss penalty axis in cycles (implies -timing; default 100, memop/buffer-hit costs scale with it)")
		memopLat    = flag.String("memop-latency", "", "prefetch memory-op latency axis in cycles (implies -timing; default scales at half the miss penalty; exclusive with -memop-ratio)")
		memopRatio  = flag.String("memop-ratio", "", "prefetch memory-op cost axis as a ratio of the miss penalty (implies -timing; the paper's point is 0.5)")
		refsPerCyc  = flag.String("refs-per-cycle", "", "issue-width axis: references retired per cycle (implies -timing; default 2)")
		storePath   = flag.String("store", "", "JSON result store to read from and merge into")
		where       = flag.String("where", "", "render matching store cells (field=value,... filters) instead of sweeping")
		figure      = flag.String("figure", "", "render matching store cells as a grouped-bar figure of this metric ("+report.MetricNames()+"); combine with -where to subset")
		gc          = flag.Bool("gc", false, "drop store cells the declared grid does not reference, then save")
		diffPath    = flag.String("diff", "", "compare the -store file against this second store and exit (1 when they differ)")
		serve       = flag.String("serve", "", "serve the grid as a distributed job feed on this address (coordinator mode, e.g. 127.0.0.1:9177)")
		workerURL   = flag.String("worker", "", "join a coordinator's job feed at this base URL (worker mode; the grid comes from the coordinator)")
		batch       = flag.Int("batch", 0, "distributed modes: max cells per lease (0 = coordinator default)")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "coordinator mode: a worker silent this long forfeits its leased cells")
		workerID    = flag.String("worker-id", "", "worker mode: name shown in coordinator logs (default worker-<pid>)")
		token       = flag.String("token", "", "distributed modes: bearer token — the coordinator requires it on every request (401 otherwise), workers send it")
		tlsCert     = flag.String("tls-cert", "", "coordinator mode: serve the feed over TLS with this certificate file (requires -tls-key)")
		tlsKey      = flag.String("tls-key", "", "coordinator mode: TLS private key file (requires -tls-cert)")
		tlsCA       = flag.String("tls-ca", "", "worker mode: PEM bundle to trust for an https coordinator (self-signed deployments; default system roots)")
		checkpoint  = flag.Duration("checkpoint", 30*time.Second, "coordinator mode: save the store this often mid-grid so a crash resumes from the last checkpoint (0 disables)")
		blobCache   = flag.String("blob-cache", "", "worker mode: directory for trace blobs fetched from the coordinator (default <user-cache-dir>/tlbsweep-blobs)")
		format      = flag.String("format", "table", "output format: table, csv, json, none (-figure mode: table, csv, svg)")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		quiet       = flag.Bool("q", false, "suppress per-cell progress on stderr")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintf(o, "usage: tlbsweep [flags]\n\n")
		fmt.Fprintf(o, "Modes (mutually exclusive): sweep the declared grid (default), render a store\n")
		fmt.Fprintf(o, "subset (-where and/or -figure), -gc, -diff, -serve, -worker. -figure combines\n")
		fmt.Fprintf(o, "with -where to render only the matching cells.\n\n")
		fmt.Fprintf(o, "Exit codes: 0 success; 1 error, differing stores (-diff), or a filter matching\n")
		fmt.Fprintf(o, "zero cells (-where/-figure — a diagnostic on stderr names the clauses that\n")
		fmt.Fprintf(o, "match nothing); 2 flag or usage errors.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tlbsweep: unexpected arguments %q (the grid is declared with flags)\n", flag.Args())
		os.Exit(2)
	}
	render := *where != "" || *figure != ""
	modes := 0
	for _, on := range []bool{render, *gc, *diffPath != "", *serve != "", *workerURL != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "tlbsweep: -where/-figure, -gc, -diff, -serve and -worker are mutually exclusive modes")
		os.Exit(2)
	}
	if (render || *gc || *diffPath != "") && *storePath == "" {
		fmt.Fprintln(os.Stderr, "tlbsweep: -where/-figure/-gc/-diff operate on a store: -store is required")
		os.Exit(2)
	}
	if *workerURL != "" && *storePath != "" {
		fmt.Fprintln(os.Stderr, "tlbsweep: a worker holds no store — the coordinator given with -serve owns it")
		os.Exit(2)
	}
	if *workerURL != "" {
		// The grid comes from the coordinator: silently dropping axis
		// flags would let `-worker URL -workloads swim -refs 1e6` look
		// like it constrained the work. -trace is the exception (it names
		// the worker's local recordings, matched to cells by digest).
		workerFlags := map[string]bool{
			"worker": true, "worker-id": true, "batch": true, "trace": true,
			"workers": true, "q": true, "cpuprofile": true, "memprofile": true,
			"token": true, "tls-ca": true, "blob-cache": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if !workerFlags[f.Name] {
				fmt.Fprintf(os.Stderr, "tlbsweep: -%s has no effect in worker mode (the coordinator declares the grid)\n", f.Name)
				os.Exit(2)
			}
		})
	}
	if !render && *diffPath == "" && *workerURL == "" && *workloads == "" && *traces == "" && *mixes == "" {
		fmt.Fprintln(os.Stderr, "tlbsweep: need a source axis: -workloads (names, suites, 'all'), -trace files and/or -mix combinations")
		flag.Usage()
		os.Exit(2)
	}

	cfg := sweepConfig{
		workloads: *workloads, traces: *traces, mechs: *mechs,
		mixes: *mixes, quanta: *quanta, policies: *policies, asids: *asids,
		rows: *rows, ways: *ways, slots: *slots,
		entries: *entries, tlbWays: *tlbWays, buffers: *buffers, pageShift: *pageShift,
		refs: *refs, warmup: *warmup, seed: *seed,
		timing: *timing, missPenalty: *missPenalty, memopLat: *memopLat,
		memopRatio: *memopRatio, refsPerCyc: *refsPerCyc,
		storePath: *storePath, where: *where, figure: *figure, gc: *gc, diffPath: *diffPath,
		serve: *serve, workerURL: *workerURL, batch: *batch,
		leaseTTL: *leaseTTL, workerID: *workerID,
		token: *token, tlsCert: *tlsCert, tlsKey: *tlsKey, tlsCA: *tlsCA,
		checkpoint: *checkpoint, blobCache: *blobCache,
		format: *format, workers: *workers, quiet: *quiet,
		cpuProf: *cpuProf, memProf: *memProf,
	}
	code, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlbsweep:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// sweepConfig carries the parsed flag surface.
type sweepConfig struct {
	workloads, traces, mechs             string
	mixes, quanta, policies, asids       string
	rows, ways, slots                    string
	entries, tlbWays, buffers, pageShift string
	refs, warmup, seed                   uint64
	timing                               bool
	missPenalty, memopLat                string
	memopRatio, refsPerCyc               string
	storePath, where, figure             string
	diffPath, format                     string
	gc                                   bool
	serve, workerURL, workerID           string
	token, tlsCert, tlsKey, tlsCA        string
	blobCache                            string
	batch                                int
	leaseTTL, checkpoint                 time.Duration
	workers                              int
	quiet                                bool
	cpuProf, memProf                     string
}

func run(cfg sweepConfig) (int, error) {
	switch cfg.format {
	case "table", "csv", "json", "none":
	case "svg":
		if cfg.figure == "" {
			return 1, fmt.Errorf("-format svg renders figures: combine it with -figure")
		}
	default:
		return 1, fmt.Errorf("unknown -format %q (table, csv, json, none; -figure mode also svg)", cfg.format)
	}

	stopProf, err := prof.Start("tlbsweep", cfg.cpuProf, cfg.memProf)
	if err != nil {
		return 1, err
	}
	defer stopProf()

	// Worker mode needs no grid or store of its own: everything comes
	// from the coordinator's feed.
	if cfg.workerURL != "" {
		return runWorker(cfg)
	}

	// The read-only modes consume an existing store; a missing file there
	// is a path typo that would otherwise succeed vacuously ("stores are
	// identical", "0 cells match"). Only a sweep may start a store fresh.
	readOnly := cfg.diffPath != "" || cfg.where != "" || cfg.figure != "" || cfg.gc
	var store *sweep.Store
	if cfg.storePath != "" {
		if readOnly {
			if _, err := os.Stat(cfg.storePath); err != nil {
				return 1, fmt.Errorf("-store %s: %w", cfg.storePath, err)
			}
		}
		store, err = sweep.OpenStore(cfg.storePath)
		if err != nil {
			return 1, err
		}
	}

	switch {
	case cfg.diffPath != "":
		return runDiff(store, cfg.diffPath)
	case cfg.figure != "":
		return runFigure(store, cfg.figure, cfg.where, cfg.format)
	case cfg.where != "":
		return runWhere(store, cfg.where, cfg.format)
	}

	grid, err := buildGrid(cfg)
	if err != nil {
		return 1, err
	}
	jobs, err := grid.Jobs()
	if err != nil {
		return 1, err
	}

	if cfg.serve != "" {
		if store == nil {
			store = sweep.NewStore()
		}
		return runServe(cfg, jobs, store)
	}

	if cfg.gc {
		keep := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			keep[j.Key().Hash()] = true
		}
		dropped, err := store.GC(keep)
		if err != nil {
			return 1, err
		}
		if err := store.Save(); err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "tlbsweep: gc dropped %d cells, kept %d\n", dropped, store.Len())
		return 0, nil
	}

	if store == nil {
		store = sweep.NewStore()
	}
	runner := sweep.Runner{Store: store, Workers: cfg.workers}
	if !cfg.quiet {
		runner.Progress = func(ev sweep.ProgressEvent) {
			note := ""
			if ev.Cached {
				note = "  (cached)"
			}
			k := ev.Result.Key
			fmt.Fprintf(os.Stderr, "[%*d/%d] %-12s %-10s tlb=%d/%d buf=%d ps=%d  acc=%s%s\n",
				len(fmt.Sprint(ev.Total)), ev.Done, ev.Total,
				k.SourceLabel(), k.Mech.Label(), k.TLBEntries, k.TLBWays, k.Buffer, k.PageShift,
				stats.F(ev.Result.Stats.Accuracy()), note)
		}
	}
	start := time.Now()
	results, sum, err := runner.Run(jobs)
	if err != nil {
		return 1, err
	}
	if cfg.storePath != "" {
		if err := store.Save(); err != nil {
			return 1, err
		}
	}
	fmt.Fprintf(os.Stderr, "tlbsweep: %d cells (%d cached, %d run in %d shards) in %v\n",
		sum.Total, sum.Cached, sum.Ran, sum.Shards, time.Since(start).Round(time.Millisecond))

	return 0, emit(results, cfg.format)
}

// runWhere renders the store subset a filter selects, no grid required. A
// filter matching zero cells is an error (exit 1) with a diagnostic naming
// the clauses that match nothing, not a vacuous empty table.
func runWhere(store *sweep.Store, spec, format string) (int, error) {
	f, err := sweep.ParseFilter(spec)
	if err != nil {
		return 1, err
	}
	results, err := f.Select(store)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(os.Stderr, "tlbsweep: %d of %d store cells match %q\n", len(results), store.Len(), spec)
	if len(results) == 0 {
		diagnoseEmptyMatch(store, f)
		return 1, nil
	}
	return 0, emit(results, format)
}

// runFigure renders the store subset (everything, or the -where matches) as
// a grouped-bar figure of the chosen metric.
func runFigure(store *sweep.Store, metric, spec, format string) (int, error) {
	m, ok := report.MetricByName(metric)
	if !ok {
		return 1, fmt.Errorf("unknown -figure metric %q (known: %s)", metric, report.MetricNames())
	}
	f, err := sweep.ParseFilter(spec)
	if err != nil {
		return 1, err
	}
	results, err := f.Select(store)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(os.Stderr, "tlbsweep: rendering %d of %d store cells as a figure of %s\n",
		len(results), store.Len(), m.Name)
	if len(results) == 0 {
		diagnoseEmptyMatch(store, f)
		return 1, nil
	}
	title := m.Axis + " by application"
	if spec != "" {
		title += " [" + spec + "]"
	}
	fig, err := report.Build(results, report.Options{Metric: m.Name, Title: title})
	if err != nil {
		return 1, err
	}
	switch format {
	case "table":
		fmt.Print(fig.Text())
	case "csv":
		fmt.Print(fig.CSV())
	case "svg":
		fmt.Print(fig.SVG())
	default:
		return 1, fmt.Errorf("-figure renders table, csv or svg, not %q", format)
	}
	return 0, nil
}

// diagnoseEmptyMatch explains a filter that selected nothing: per-clause
// solo match counts, with the clauses no store cell satisfies called out —
// the difference between a typoed value and an empty conjunction.
func diagnoseEmptyMatch(store *sweep.Store, f sweep.Filter) {
	if store.Len() == 0 {
		fmt.Fprintln(os.Stderr, "tlbsweep: the store holds no cells at all — sweep into it first")
		return
	}
	if f.Empty() {
		return // store.Len()>0 and an empty filter cannot select nothing
	}
	// The index alone carries every key — no segment is read to explain an
	// empty match.
	keys := store.IndexKeys()
	var unmatched []string
	for _, cm := range f.ClauseMatches(keys) {
		fmt.Fprintf(os.Stderr, "tlbsweep:   %s alone matches %d cells\n", cm.Clause, cm.Matches)
		if cm.Matches == 0 {
			unmatched = append(unmatched, cm.Clause)
		}
	}
	if len(unmatched) > 0 {
		fmt.Fprintf(os.Stderr, "tlbsweep: no store cell satisfies %s — drop or fix those clauses\n",
			strings.Join(unmatched, ", "))
	} else {
		fmt.Fprintln(os.Stderr, "tlbsweep: every clause matches some cells, but no single cell satisfies the whole conjunction")
	}
}

// runDiff compares two stores; exit code 1 reports a difference.
func runDiff(a *sweep.Store, bPath string) (int, error) {
	if _, err := os.Stat(bPath); err != nil {
		return 1, fmt.Errorf("-diff %s: %w", bPath, err)
	}
	b, err := sweep.OpenStore(bPath)
	if err != nil {
		return 1, err
	}
	d, err := sweep.DiffStores(a, b)
	if err != nil {
		return 1, err
	}
	fmt.Print(d.Summary())
	if d.Empty() {
		return 0, nil
	}
	return 1, nil
}

func emit(results []sweep.Result, format string) error {
	switch format {
	case "table":
		fmt.Print(sweep.Table(results).String())
	case "csv":
		fmt.Print(sweep.CSV(results))
	case "json":
		b, err := sweep.JSON(results)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
		fmt.Println()
	case "none":
	}
	return nil
}

// buildGrid parses the axis flags into a sweep.Grid.
func buildGrid(cfg sweepConfig) (sweep.Grid, error) {
	g := sweep.Grid{Refs: cfg.refs, Warmup: cfg.warmup, Seed: cfg.seed}
	var err error

	if cfg.workloads != "" {
		names, err := resolveWorkloads(cfg.workloads)
		if err != nil {
			return g, err
		}
		g.Workloads = names
	}
	for _, tok := range strings.Split(cfg.traces, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		src, err := sweep.TraceSource(tok)
		if err != nil {
			return g, err
		}
		g.Traces = append(g.Traces, src)
	}
	for _, tok := range strings.Split(cfg.mixes, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		mix, err := parseMix(tok)
		if err != nil {
			return g, err
		}
		g.Mixes = append(g.Mixes, mix)
	}
	if cfg.quanta != "" {
		if g.Quanta, err = parseUints("quantum", cfg.quanta); err != nil {
			return g, err
		}
	}
	if cfg.policies != "" {
		g.Policies = splitAxis(cfg.policies)
	}
	if cfg.asids != "" {
		g.ASIDs = splitAxis(cfg.asids)
	}

	rowAxis, err := parseInts("rows", cfg.rows)
	if err != nil {
		return g, err
	}
	wayAxis, err := parseInts("ways", cfg.ways)
	if err != nil {
		return g, err
	}
	slotAxis, err := parseInts("slots", cfg.slots)
	if err != nil {
		return g, err
	}
	for _, kind := range strings.Split(cfg.mechs, ",") {
		kind = sweep.ParseKind(strings.TrimSpace(kind))
		for _, r := range rowAxis {
			for _, w := range wayAxis {
				for _, s := range slotAxis {
					m := sweep.Mech{Kind: kind, Rows: r, Ways: w, Slots: s}
					if err := m.Validate(); err != nil {
						return g, err
					}
					g.Mechs = append(g.Mechs, m)
				}
			}
		}
	}

	if g.TLBEntries, err = parseInts("entries", cfg.entries); err != nil {
		return g, err
	}
	if g.TLBWays, err = parseInts("tlbways", cfg.tlbWays); err != nil {
		return g, err
	}
	if g.Buffers, err = parseInts("buffer", cfg.buffers); err != nil {
		return g, err
	}
	shifts, err := parseInts("pageshift", cfg.pageShift)
	if err != nil {
		return g, err
	}
	for _, s := range shifts {
		if s <= 0 {
			return g, fmt.Errorf("-pageshift values must be positive, got %d", s)
		}
		g.PageShifts = append(g.PageShifts, uint(s))
	}

	axes, err := buildTimingAxes(cfg)
	if err != nil {
		return g, err
	}
	g.TimingAxes = axes
	return g, nil
}

// buildTimingAxes parses the cycle-model flags into the decoupled design
// space sweep.TimingAxes expands: -miss-penalty × (-memop-latency cycles OR
// -memop-ratio fractions of the penalty) × -refs-per-cycle issue widths.
// Any of the axis flags implies the cycle model; -timing alone runs the
// single default point.
func buildTimingAxes(cfg sweepConfig) (sweep.TimingAxes, error) {
	var axes sweep.TimingAxes
	if cfg.missPenalty == "" && cfg.memopLat == "" && cfg.memopRatio == "" && cfg.refsPerCyc == "" {
		if cfg.timing {
			// The single default point, spelled as a one-penalty axis.
			axes.MissPenalties = []uint64{sweep.DefaultTiming().MissPenalty}
		}
		return axes, nil
	}
	var err error
	if cfg.missPenalty != "" {
		if axes.MissPenalties, err = parseUints("miss-penalty", cfg.missPenalty); err != nil {
			return axes, err
		}
	}
	if cfg.memopLat != "" {
		if axes.MemOpLatencies, err = parseUints("memop-latency", cfg.memopLat); err != nil {
			return axes, err
		}
	}
	if cfg.memopRatio != "" {
		if axes.MemOpRatios, err = parseFloats("memop-ratio", cfg.memopRatio); err != nil {
			return axes, err
		}
	}
	if cfg.refsPerCyc != "" {
		if axes.RefsPerCycle, err = parseUints("refs-per-cycle", cfg.refsPerCyc); err != nil {
			return axes, err
		}
	}
	if _, err := axes.Points(); err != nil { // surface axis conflicts at flag-parse time
		return axes, err
	}
	return axes, nil
}

// parseMix parses one '+'-joined mix spec: each member is a workload
// registry name, or failing that a trace file path (digested into the key
// like -trace). The scheduler parameters stay zero here — the grid's
// -quantum/-policy/-asid axes (or their defaults) fill them in per cell.
func parseMix(spec string) (sweep.Mix, error) {
	var mix sweep.Mix
	for _, tok := range strings.Split(spec, "+") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if _, ok := workload.ByName(tok); ok {
			mix.Sources = append(mix.Sources, sweep.WorkloadSource(tok))
			continue
		}
		src, err := sweep.TraceSource(tok)
		if err != nil {
			return mix, fmt.Errorf("-mix member %q is neither a workload name nor a readable trace: %w", tok, err)
		}
		mix.Sources = append(mix.Sources, src)
	}
	if len(mix.Sources) < 2 {
		return mix, fmt.Errorf("-mix %q needs at least two '+'-joined members", spec)
	}
	return mix, nil
}

// splitAxis splits a comma-separated string axis, trimming blanks.
func splitAxis(spec string) []string {
	var out []string
	for _, tok := range strings.Split(spec, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// resolveWorkloads expands each comma-separated token — a workload name, a
// suite name, or "all" — into workload registry names, de-duplicated in
// first-mention order.
func resolveWorkloads(spec string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "all" {
			for _, w := range workload.All() {
				add(w.Name)
			}
			continue
		}
		if suite := workload.Suite(tok); len(suite) > 0 {
			for _, w := range suite {
				add(w.Name)
			}
			continue
		}
		if _, ok := workload.ByName(tok); !ok {
			return nil, fmt.Errorf("unknown workload or suite %q (try tlbsim -list)", tok)
		}
		add(tok)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workloads %q selected no workloads", spec)
	}
	return out, nil
}

// parseInts parses a comma-separated integer axis.
func parseInts(name, spec string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not an integer", name, tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s needs at least one value", name)
	}
	return out, nil
}

// parseFloats parses a comma-separated ratio axis.
func parseFloats(name, spec string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		// !(v > 0) also rejects NaN; infinities parse fine but would cast
		// to platform-dependent uint64 cells, so reject them explicitly.
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-%s: %q is not a positive finite number", name, tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s needs at least one value", name)
	}
	return out, nil
}

// parseUints parses a comma-separated unsigned axis.
func parseUints(name, spec string) ([]uint64, error) {
	var out []uint64
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not a non-negative integer", name, tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s needs at least one value", name)
	}
	return out, nil
}
