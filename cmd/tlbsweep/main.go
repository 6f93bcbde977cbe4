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
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"tlbprefetch/internal/cli"
	"tlbprefetch/internal/prof"
	"tlbprefetch/internal/report"
	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: results go to stdout, progress and
// diagnostics to stderr, and the result is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := &sweepConfig{stdout: stdout, stderr: stderr}
	err := cfg.parse(args)
	if err == nil {
		err = cfg.execute()
	}
	return cli.Code("tlbsweep", stderr, err)
}

// sweepConfig carries the parsed flag surface, what parse derives from it
// and the command's output streams.
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

	filter         sweep.Filter  // -where, parsed
	metric         report.Metric // -figure, resolved
	jobs           []sweep.Job   // the declared grid's cells (sweep, -gc, -serve)
	stdout, stderr io.Writer
}

// workerFlags are the flags worker mode reads. The grid comes from the
// coordinator, so any other flag would only look like it constrained the
// work; -trace names the worker's local recordings, matched by digest.
var workerFlags = []string{"worker", "worker-id", "batch", "trace", "workers", "q",
	"cpuprofile", "memprofile", "token", "tls-ca", "blob-cache"}

// parse reads args and checks every flag before execute touches the store
// or the network: anything wrong here is a usage error (exit 2). The only
// files it reads are the -trace and -mix recordings a grid names, after
// every flag-only axis has parsed.
func (cfg *sweepConfig) parse(args []string) error {
	fs := flag.NewFlagSet("tlbsweep", flag.ContinueOnError)
	fs.SetOutput(cfg.stderr)
	fs.StringVar(&cfg.workloads, "workloads", "", "comma-separated workload names, suite names (SPEC, MediaBench, Etch, PointerIntensive) or 'all'")
	fs.StringVar(&cfg.traces, "trace", "", "comma-separated trace files added to the source axis (digested into the keys)")
	fs.StringVar(&cfg.mixes, "mix", "", "comma-separated multiprogrammed mixes, each '+'-joined members (workload names or trace files), e.g. galgel+gcc")
	fs.StringVar(&cfg.quanta, "quantum", "", "mix context-switch quantum axis in references (default 20000)")
	fs.StringVar(&cfg.policies, "policy", "", "mix prediction-table policy axis: retain, flush, per-process (default retain)")
	fs.StringVar(&cfg.asids, "asid", "", "mix translation treatment axis: flush (TLB+buffer emptied per switch) or tagged (default flush)")
	fs.StringVar(&cfg.mechs, "mechs", "DP", "comma-separated mechanism kinds: "+strings.Join(sweep.Kinds(), ", "))
	fs.StringVar(&cfg.rows, "rows", "256", "prediction-table rows axis (table mechanisms)")
	fs.StringVar(&cfg.ways, "ways", "1", "prediction-table associativity axis (table mechanisms)")
	fs.StringVar(&cfg.slots, "slots", "2", "prediction slots per row axis (DP/MP families)")
	fs.StringVar(&cfg.entries, "entries", "128", "TLB entries axis")
	fs.StringVar(&cfg.tlbWays, "tlbways", "0", "TLB associativity axis (0 = fully associative)")
	fs.StringVar(&cfg.buffers, "buffer", "16", "prefetch buffer entries axis")
	fs.StringVar(&cfg.pageShift, "pageshift", "12", "log2 page size axis")
	fs.Uint64Var(&cfg.refs, "refs", 1_000_000, "references measured per cell")
	fs.Uint64Var(&cfg.warmup, "warmup", 0, "references simulated before the counters reset")
	fs.Uint64Var(&cfg.seed, "seed", 0, "base seed: 0 keeps the models' paper-calibrated streams, nonzero derives an independent per-cell stream seed")
	fs.BoolVar(&cfg.timing, "timing", false, "run every cell under the cycle model (paper Table 3)")
	fs.StringVar(&cfg.missPenalty, "miss-penalty", "", "TLB miss penalty axis in cycles (implies -timing; default 100, memop/buffer-hit costs scale with it)")
	fs.StringVar(&cfg.memopLat, "memop-latency", "", "prefetch memory-op latency axis in cycles (implies -timing; default scales at half the miss penalty; exclusive with -memop-ratio)")
	fs.StringVar(&cfg.memopRatio, "memop-ratio", "", "prefetch memory-op cost axis as a ratio of the miss penalty (implies -timing; the paper's point is 0.5)")
	fs.StringVar(&cfg.refsPerCyc, "refs-per-cycle", "", "issue-width axis: references retired per cycle (implies -timing; default 2)")
	fs.StringVar(&cfg.storePath, "store", "", "JSON result store to read from and merge into")
	fs.StringVar(&cfg.where, "where", "", "render matching store cells (field=value,... filters) instead of sweeping")
	fs.StringVar(&cfg.figure, "figure", "", "render matching store cells as a grouped-bar figure of this metric ("+report.MetricNames()+"); combine with -where to subset")
	fs.BoolVar(&cfg.gc, "gc", false, "drop store cells the declared grid does not reference, then save")
	fs.StringVar(&cfg.diffPath, "diff", "", "compare the -store file against this second store and exit (1 when they differ)")
	fs.StringVar(&cfg.serve, "serve", "", "serve the grid as a distributed job feed on this address (coordinator mode, e.g. 127.0.0.1:9177)")
	fs.StringVar(&cfg.workerURL, "worker", "", "join a coordinator's job feed at this base URL (worker mode; the grid comes from the coordinator)")
	fs.IntVar(&cfg.batch, "batch", 0, "distributed modes: max cells per lease (0 = coordinator default)")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", 30*time.Second, "coordinator mode: a worker silent this long forfeits its leased cells")
	fs.StringVar(&cfg.workerID, "worker-id", "", "worker mode: name shown in coordinator logs (default worker-<pid>)")
	fs.StringVar(&cfg.token, "token", "", "distributed modes: bearer token — the coordinator requires it on every request (401 otherwise), workers send it")
	fs.StringVar(&cfg.tlsCert, "tls-cert", "", "coordinator mode: serve the feed over TLS with this certificate file (requires -tls-key)")
	fs.StringVar(&cfg.tlsKey, "tls-key", "", "coordinator mode: TLS private key file (requires -tls-cert)")
	fs.StringVar(&cfg.tlsCA, "tls-ca", "", "worker mode: PEM bundle to trust for an https coordinator (self-signed deployments; default system roots)")
	fs.DurationVar(&cfg.checkpoint, "checkpoint", 30*time.Second, "coordinator mode: save the store this often mid-grid so a crash resumes from the last checkpoint (0 disables)")
	fs.StringVar(&cfg.blobCache, "blob-cache", "", "worker mode: directory for trace blobs fetched from the coordinator (default <user-cache-dir>/tlbsweep-blobs)")
	fs.StringVar(&cfg.format, "format", "table", "output format: table, csv, json, none (-figure mode: table, csv, svg)")
	fs.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.quiet, "q", false, "suppress per-cell progress on stderr")
	fs.StringVar(&cfg.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memProf, "memprofile", "", "write a heap profile to this file")
	fs.Usage = func() {
		fmt.Fprint(cfg.stderr, `usage: tlbsweep [flags]

Modes (mutually exclusive): sweep the declared grid (default), render a store
subset (-where and/or -figure), -gc, -diff, -serve, -worker. -figure combines
with -where to render only the matching cells.

`, cli.Rule, `-diff also exits 1 when the stores differ, and -where/-figure when the filter
matches zero cells (a diagnostic on stderr names the clauses that match
nothing). An interrupted -serve coordinator checkpoints the store and exits 3.

`)
		fs.PrintDefaults()
	}
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	render := cfg.where != "" || cfg.figure != ""
	modes := 0
	for _, on := range []bool{render, cfg.gc, cfg.diffPath != "", cfg.serve != "", cfg.workerURL != ""} {
		if on {
			modes++
		}
	}
	formats := []string{"table", "csv", "json", "none"}
	if cfg.figure != "" {
		formats = []string{"table", "csv", "svg"}
	}
	switch {
	case modes > 1:
		return cli.Usagef("-where/-figure, -gc, -diff, -serve and -worker are mutually exclusive modes")
	case (render || cfg.gc || cfg.diffPath != "") && cfg.storePath == "":
		return cli.Usagef("-where/-figure/-gc/-diff operate on a store: -store is required")
	case cfg.workerURL != "" && cfg.storePath != "":
		return cli.Usagef("a worker holds no store — the coordinator given with -serve owns it")
	case (cfg.tlsCert == "") != (cfg.tlsKey == ""):
		return cli.Usagef("-tls-cert and -tls-key must be given together")
	case cfg.format == "svg" && cfg.figure == "":
		return cli.Usagef("-format svg renders figures: combine it with -figure")
	case !slices.Contains(formats, cfg.format):
		return cli.Usagef("unknown -format %q (%s)", cfg.format, strings.Join(formats, ", "))
	}

	var err error
	switch {
	case cfg.workerURL != "":
		fs.Visit(func(f *flag.Flag) {
			if err == nil && !slices.Contains(workerFlags, f.Name) {
				err = cli.Usagef("-%s has no effect in worker mode (the coordinator declares the grid)", f.Name)
			}
		})
		return err
	case cfg.diffPath != "":
		return nil
	case render:
		var ok bool
		if cfg.metric, ok = report.MetricByName(cfg.figure); !ok && cfg.figure != "" {
			return cli.Usagef("unknown -figure metric %q (known: %s)", cfg.figure, report.MetricNames())
		}
		if cfg.filter, err = sweep.ParseFilter(cfg.where); err != nil {
			return cli.Usage(err)
		}
		return nil
	case cfg.workloads == "" && cfg.traces == "" && cfg.mixes == "":
		fs.Usage()
		return cli.Usagef("need a source axis: -workloads (names, suites, 'all'), -trace files and/or -mix combinations")
	case cfg.refs == 0:
		// A zero sweep.Grid.Refs means the library default, so a declared
		// grid would silently run 1,000,000-reference cells.
		return cli.Usagef("-refs must be positive")
	}
	cfg.jobs, err = cfg.buildJobs()
	return err
}

// execute runs the mode parse chose. What it returns is an error from a
// file, the network or the store (exit 1), or a cli.Exit whose reason it
// has already written to stderr.
func (cfg *sweepConfig) execute() error {
	stopProf, err := prof.Start("tlbsweep", cfg.cpuProf, cfg.memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	// Worker mode needs no store of its own: everything comes from the
	// coordinator's feed.
	if cfg.workerURL != "" {
		return cfg.runWorker()
	}

	// The read-only modes consume an existing store; a missing file there
	// is a path typo that would otherwise succeed vacuously ("stores are
	// identical", "0 cells match"). Only a sweep may start a store fresh.
	readOnly := cfg.diffPath != "" || cfg.where != "" || cfg.figure != "" || cfg.gc
	var store *sweep.Store
	if cfg.storePath == "" {
		store = sweep.NewStore()
	} else {
		if readOnly {
			if _, err := os.Stat(cfg.storePath); err != nil {
				return fmt.Errorf("-store %s: %w", cfg.storePath, err)
			}
		}
		if store, err = sweep.OpenStore(cfg.storePath); err != nil {
			return err
		}
	}

	switch {
	case cfg.diffPath != "":
		return cfg.runDiff(store)
	case cfg.figure != "":
		return cfg.runFigure(store)
	case cfg.where != "":
		return cfg.runWhere(store)
	case cfg.serve != "":
		return cfg.runServe(store)
	case cfg.gc:
		keep := make(map[string]bool, len(cfg.jobs))
		for _, j := range cfg.jobs {
			keep[j.Key().Hash()] = true
		}
		dropped, err := store.GC(keep)
		if err != nil {
			return err
		}
		if err := store.Save(); err != nil {
			return err
		}
		fmt.Fprintf(cfg.stderr, "tlbsweep: gc dropped %d cells, kept %d\n", dropped, store.Len())
		return nil
	}

	runner := sweep.Runner{Store: store, Workers: cfg.workers}
	if !cfg.quiet {
		runner.Progress = func(ev sweep.ProgressEvent) {
			note := ""
			if ev.Cached {
				note = "  (cached)"
			}
			k := ev.Result.Key
			fmt.Fprintf(cfg.stderr, "[%*d/%d] %-12s %-10s tlb=%d/%d buf=%d ps=%d  acc=%s%s\n",
				len(fmt.Sprint(ev.Total)), ev.Done, ev.Total,
				k.SourceLabel(), k.Mech.Label(), k.TLBEntries, k.TLBWays, k.Buffer, k.PageShift,
				stats.F(ev.Result.Stats.Accuracy()), note)
		}
	}
	start := time.Now()
	results, sum, err := runner.Run(cfg.jobs)
	if err != nil {
		return err
	}
	if cfg.storePath != "" {
		if err := store.Save(); err != nil {
			return err
		}
	}
	fmt.Fprintf(cfg.stderr, "tlbsweep: %d cells (%d cached, %d run in %d shards) in %v\n",
		sum.Total, sum.Cached, sum.Ran, sum.Shards, time.Since(start).Round(time.Millisecond))
	return cfg.emit(results)
}

// runWhere renders the store subset the -where filter selects, no grid
// required. A filter matching zero cells exits 1 with a diagnostic naming
// the clauses that match nothing, not a vacuous empty table.
func (cfg *sweepConfig) runWhere(store *sweep.Store) error {
	results, err := cfg.filter.Select(store)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.stderr, "tlbsweep: %d of %d store cells match %q\n", len(results), store.Len(), cfg.where)
	if len(results) == 0 {
		cfg.diagnoseEmptyMatch(store)
		return cli.Exit(1)
	}
	return cfg.emit(results)
}

// runFigure renders the store subset (everything, or the -where matches)
// as a grouped-bar figure of the chosen metric.
func (cfg *sweepConfig) runFigure(store *sweep.Store) error {
	results, err := cfg.filter.Select(store)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.stderr, "tlbsweep: rendering %d of %d store cells as a figure of %s\n",
		len(results), store.Len(), cfg.metric.Name)
	if len(results) == 0 {
		cfg.diagnoseEmptyMatch(store)
		return cli.Exit(1)
	}
	title := cfg.metric.Axis + " by application"
	if cfg.where != "" {
		title += " [" + cfg.where + "]"
	}
	fig, err := report.Build(results, report.Options{Metric: cfg.metric.Name, Title: title})
	if err != nil {
		return err
	}
	fmt.Fprint(cfg.stdout, report.Render(cfg.format, fig))
	return nil
}

// diagnoseEmptyMatch explains a filter that selected nothing: per-clause
// solo match counts, with the clauses no store cell satisfies called out —
// the difference between a typoed value and an empty conjunction.
func (cfg *sweepConfig) diagnoseEmptyMatch(store *sweep.Store) {
	if store.Len() == 0 {
		fmt.Fprintln(cfg.stderr, "tlbsweep: the store holds no cells at all — sweep into it first")
		return
	}
	if cfg.filter.Empty() {
		return // store.Len()>0 and an empty filter cannot select nothing
	}
	// The index alone carries every key — no segment is read to explain an
	// empty match.
	keys := store.IndexKeys()
	var unmatched []string
	for _, cm := range cfg.filter.ClauseMatches(keys) {
		fmt.Fprintf(cfg.stderr, "tlbsweep:   %s alone matches %d cells\n", cm.Clause, cm.Matches)
		if cm.Matches == 0 {
			unmatched = append(unmatched, cm.Clause)
		}
	}
	if len(unmatched) > 0 {
		fmt.Fprintf(cfg.stderr, "tlbsweep: no store cell satisfies %s — drop or fix those clauses\n",
			strings.Join(unmatched, ", "))
	} else {
		fmt.Fprintln(cfg.stderr, "tlbsweep: every clause matches some cells, but no single cell satisfies the whole conjunction")
	}
}

// runDiff compares the store against -diff's; a difference exits 1.
func (cfg *sweepConfig) runDiff(a *sweep.Store) error {
	if _, err := os.Stat(cfg.diffPath); err != nil {
		return fmt.Errorf("-diff %s: %w", cfg.diffPath, err)
	}
	b, err := sweep.OpenStore(cfg.diffPath)
	if err != nil {
		return err
	}
	d, err := sweep.DiffStores(a, b)
	if err != nil {
		return err
	}
	fmt.Fprint(cfg.stdout, d.Summary())
	if !d.Empty() {
		return cli.Exit(1)
	}
	return nil
}

func (cfg *sweepConfig) emit(results []sweep.Result) error {
	switch cfg.format {
	case "table":
		fmt.Fprint(cfg.stdout, sweep.Table(results).String())
	case "csv":
		fmt.Fprint(cfg.stdout, sweep.CSV(results))
	case "json":
		b, err := sweep.JSON(results)
		if err != nil {
			return err
		}
		cfg.stdout.Write(b)
		fmt.Fprintln(cfg.stdout)
	}
	return nil
}

// buildJobs parses the axis flags into a sweep.Grid and enumerates its
// cells. Every error is a usage error but a trace file that cannot be
// digested, and those files are read only after the flag-only axes parse.
func (cfg *sweepConfig) buildJobs() ([]sweep.Job, error) {
	g := sweep.Grid{Refs: cfg.refs, Warmup: cfg.warmup, Seed: cfg.seed,
		Policies: split(cfg.policies, ","), ASIDs: split(cfg.asids, ",")}
	var err error
	if cfg.workloads != "" {
		if g.Workloads, err = resolveWorkloads(cfg.workloads); err != nil {
			return nil, err
		}
	}
	if cfg.quanta != "" {
		if g.Quanta, err = parseUints("quantum", cfg.quanta); err != nil {
			return nil, err
		}
	}

	rowAxis, err := parseInts("rows", cfg.rows)
	if err != nil {
		return nil, err
	}
	wayAxis, err := parseInts("ways", cfg.ways)
	if err != nil {
		return nil, err
	}
	slotAxis, err := parseInts("slots", cfg.slots)
	if err != nil {
		return nil, err
	}
	for _, kind := range split(cfg.mechs, ",") {
		kind = sweep.ParseKind(kind)
		for _, r := range rowAxis {
			for _, w := range wayAxis {
				for _, s := range slotAxis {
					m := sweep.Mech{Kind: kind, Rows: r, Ways: w, Slots: s}
					if err := m.Validate(); err != nil {
						return nil, cli.Usage(err)
					}
					g.Mechs = append(g.Mechs, m)
				}
			}
		}
	}

	if g.TLBEntries, err = parseInts("entries", cfg.entries); err != nil {
		return nil, err
	}
	if g.TLBWays, err = parseInts("tlbways", cfg.tlbWays); err != nil {
		return nil, err
	}
	if g.Buffers, err = parseInts("buffer", cfg.buffers); err != nil {
		return nil, err
	}
	if g.PageShifts, err = parseAxis("pageshift", cfg.pageShift, "a positive integer", func(s string) (uint, error) {
		v, err := strconv.ParseUint(s, 10, 0)
		if err == nil && v == 0 {
			err = strconv.ErrRange
		}
		return uint(v), err
	}); err != nil {
		return nil, err
	}
	if g.TimingAxes, err = cfg.buildTimingAxes(); err != nil {
		return nil, err
	}

	// A mix's member count is a flag fact; its trace members, like the
	// -trace files, are the only files a grid reads.
	var mixes [][]string
	for _, spec := range split(cfg.mixes, ",") {
		members := split(spec, "+")
		if len(members) < 2 {
			return nil, cli.Usagef("-mix %q needs at least two '+'-joined members", spec)
		}
		mixes = append(mixes, members)
	}
	for _, tok := range split(cfg.traces, ",") {
		src, err := sweep.TraceSource(tok)
		if err != nil {
			return nil, err
		}
		g.Traces = append(g.Traces, src)
	}
	for _, members := range mixes {
		mix, err := resolveMix(members)
		if err != nil {
			return nil, err
		}
		g.Mixes = append(g.Mixes, mix)
	}
	// Grid.Jobs rejects only flag values and how they combine.
	jobs, err := g.Jobs()
	if err != nil {
		return nil, cli.Usage(err)
	}
	return jobs, nil
}

// buildTimingAxes parses the cycle-model flags into the decoupled design
// space sweep.TimingAxes expands: -miss-penalty × (-memop-latency cycles OR
// -memop-ratio fractions of the penalty) × -refs-per-cycle issue widths.
// Any of the axis flags implies the cycle model; -timing alone runs the
// single default point.
func (cfg *sweepConfig) buildTimingAxes() (sweep.TimingAxes, error) {
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
		return axes, cli.Usage(err)
	}
	return axes, nil
}

// resolveMix resolves a mix's members: each is a workload registry name,
// or failing that a trace file path (digested into the key like -trace).
// The scheduler parameters stay zero here — the grid's -quantum/-policy/
// -asid axes (or their defaults) fill them in per cell.
func resolveMix(members []string) (sweep.Mix, error) {
	var mix sweep.Mix
	for _, tok := range members {
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
	return mix, nil
}

// split splits spec at sep, trimming blanks and dropping empty tokens.
func split(spec, sep string) []string {
	var out []string
	for _, tok := range strings.Split(spec, sep) {
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
	for _, tok := range split(spec, ",") {
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
			return nil, cli.Usagef("unknown workload or suite %q (try tlbsim -list)", tok)
		}
		add(tok)
	}
	if len(out) == 0 {
		return nil, cli.Usagef("-workloads %q selected no workloads", spec)
	}
	return out, nil
}

// parseAxis parses a comma-separated numeric axis; want names what parse
// accepts. A malformed or empty axis is a usage error.
func parseAxis[T any](name, spec, want string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, tok := range split(spec, ",") {
		v, err := parse(tok)
		if err != nil {
			return nil, cli.Usagef("-%s: %q is not %s", name, tok, want)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, cli.Usagef("-%s needs at least one value", name)
	}
	return out, nil
}

func parseInts(name, spec string) ([]int, error) {
	return parseAxis(name, spec, "an integer", strconv.Atoi)
}

func parseUints(name, spec string) ([]uint64, error) {
	return parseAxis(name, spec, "a non-negative integer", func(s string) (uint64, error) {
		return strconv.ParseUint(s, 10, 64)
	})
}

// parseFloats parses a ratio axis. !(v > 0) also rejects NaN; infinities
// parse fine but would cast to platform-dependent uint64 cells, so they
// are rejected explicitly.
func parseFloats(name, spec string) ([]float64, error) {
	return parseAxis(name, spec, "a positive finite number", func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (!(v > 0) || math.IsInf(v, 0)) {
			err = strconv.ErrRange
		}
		return v, err
	})
}
