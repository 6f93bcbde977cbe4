package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/report"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
)

// sweepWorkers is the sweep worker count: the machine's CPUs, capped at two
// so the shard balance each workload sees does not change with the host.
func sweepWorkers() int {
	return min(runtime.NumCPU(), 2)
}

// settle is one cell settling during a measured run.
type settle struct {
	at     time.Duration // since the run started
	shard  string        // identity of the shard that produced it
	cached bool
}

// sample is one measured run: the user action of opening the store,
// running the grid, saving the store and rendering the figures.
type sample struct {
	wall, cpu  time.Duration
	open, run  time.Duration // store.open, sweep.run
	save, rend time.Duration // store.save, report.render
	cellRefs   uint64        // refs+warmup over every cell the run settled
	peakRSS    float64       // MB
	allocMB    float64
	storeBytes int64
	segReads   int
	segWrites  int
	summary    sweep.Summary
	results    []sweep.Result
	settles    []settle
	digest     string // digestStore of the saved store
	runErr     error  // Runner.Run failed: every cell counts as failed
}

// measure performs one measured run of the plan. With a tracer it records
// the run's span tree under a "run" root; without one the run is exactly
// the user action.
func (p *plan) measure(tr *tracer) (sample, error) {
	var s sample
	if !p.warm {
		if err := removeStore(p.store); err != nil {
			return s, err
		}
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	t0 := time.Now()
	root := tr.begin("run", -1)
	sp := tr.begin("store.open", root)
	st, err := sweep.OpenStore(p.store)
	tr.end(sp, 0)
	if err != nil {
		return s, err
	}
	t1 := time.Now()

	runSpan := tr.begin("sweep.run", root)
	r := sweep.Runner{
		Store:   st,
		Workers: sweepWorkers(),
		Progress: func(ev sweep.ProgressEvent) {
			now := time.Now()
			s.settles = append(s.settles, settle{at: now.Sub(t0), shard: shardOf(ev.Result.Key), cached: ev.Cached})
			tr.add("sweep.settle", runSpan, now, now, 1)
		},
	}
	if tr != nil {
		r.OpenTrace = timedOpen(tr, runSpan)
	}
	results, sum, runErr := r.Run(p.jobs)
	tr.end(runSpan, int64(sum.Total))
	t2 := time.Now()

	var t3 time.Time
	if runErr == nil {
		sp = tr.begin("store.save", root)
		err = st.Save()
		tr.end(sp, 0)
		if err != nil {
			return s, err
		}
		t3 = time.Now()
		sp = tr.begin("report.render", root)
		n, err := p.render(results)
		tr.end(sp, int64(n))
		if err != nil {
			return s, err
		}
	} else {
		t3 = t2
	}
	t4 := time.Now()
	tr.end(root, int64(sum.Total))

	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	s.wall = t4.Sub(t0)
	s.open, s.run, s.save, s.rend = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	s.peakRSS = peakRSSMB()
	s.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	s.summary, s.results, s.runErr = sum, results, runErr
	s.segReads, s.segWrites = st.SegmentReads(), st.SegmentWrites()
	for _, res := range results {
		s.cellRefs += res.Key.Refs + res.Key.Warmup
	}
	if runErr != nil {
		return s, nil
	}
	if s.storeBytes, err = storeSize(p.store); err != nil {
		return s, err
	}
	data, err := st.Bytes()
	if err != nil {
		return s, err
	}
	s.digest = digestStore(data)
	return s, nil
}

// render builds every figure of the plan from the run's results and renders
// each as text, then all of them as one SVG document — the figure step of a
// sweep. It returns the rendered byte count.
func (p *plan) render(results []sweep.Result) (int, error) {
	byHash := make(map[string]sweep.Result, len(results))
	for i, h := range p.hashes {
		byHash[h] = results[i]
	}
	n := 0
	var figs []*report.Figure
	for _, f := range p.figs {
		sub := make([]sweep.Result, len(f.hashes))
		for i, h := range f.hashes {
			sub[i] = byHash[h]
		}
		fig, err := f.build(sub)
		if err != nil {
			return n, fmt.Errorf("%s: %w", f.title, err)
		}
		n += len(fig.Text())
		figs = append(figs, fig)
	}
	n += len(report.SVGDocument(figs...))
	return n, nil
}

// build arranges a figure's cells: through report.Build, or — for a panel
// with its own series labels — as per-application accuracy rows through
// experiments.FigureFromApps.
func (f figure) build(cells []sweep.Result) (*report.Figure, error) {
	if f.labels == nil {
		return report.Build(cells, report.Options{Metric: f.metric, Title: f.title})
	}
	if len(cells)%len(f.labels) != 0 {
		return nil, fmt.Errorf("%d cells do not fill rows of %d series", len(cells), len(f.labels))
	}
	var apps []experiments.AppResult
	for i := 0; i < len(cells); i += len(f.labels) {
		a := experiments.AppResult{App: cells[i].Key.SourceLabel(), Labels: f.labels}
		for _, c := range cells[i : i+len(f.labels)] {
			a.Acc = append(a.Acc, c.Stats.Accuracy())
		}
		apps = append(apps, a)
	}
	return experiments.FigureFromApps(f.title, apps), nil
}

// shardOf names the shard a cell ran on, mirroring the runner's coalescing
// rule: one stream (source or mix stream, seed, length) and one TLB
// frontend geometry.
func shardOf(k sweep.Key) string {
	src := k.Source.Label()
	if k.Mix != nil {
		src = fmt.Sprintf("%s/q%d", k.Mix.Label(), k.Mix.Quantum)
	}
	ways := k.TLBWays
	if ways == k.TLBEntries {
		ways = 0
	}
	return fmt.Sprintf("%s|%d|%d/%d|%d|%d+%d|%t", src, k.Seed, k.TLBEntries, ways, k.PageShift, k.Warmup, k.Refs, k.Timing != nil)
}

// timedOpen is the Runner.OpenTrace hook of a traced run: it opens the
// trace file as the default hook does and records every ReadBatch as a
// trace.read_batch span under the sweep.run span.
func timedOpen(tr *tracer, parent int) func(sweep.Source) (trace.Reader, io.Closer, error) {
	return func(src sweep.Source) (trace.Reader, io.Closer, error) {
		r, c, err := trace.OpenFile(src.TracePath)
		if err != nil {
			return nil, nil, err
		}
		return &timedReader{Reader: r, b: trace.AsBatch(r), tr: tr, parent: parent}, c, nil
	}
}

// timedReader times a trace reader's batched decode.
type timedReader struct {
	trace.Reader
	b      trace.BatchReader
	tr     *tracer
	parent int
}

// ReadBatch implements trace.BatchReader.
func (t *timedReader) ReadBatch(dst []trace.Ref) (int, error) {
	start := time.Now()
	n, err := t.b.ReadBatch(dst)
	t.tr.add("trace.read_batch", t.parent, start, time.Now(), int64(n))
	return n, err
}

// binaryLine matches the provenance stamp in Store.Bytes, which names the
// producing binary rather than the cells.
var binaryLine = regexp.MustCompile(`(?m)^  "binary": ".*",\n`)

// digestStore is the hex SHA-256 of a store's canonical bytes with the
// binary stamp removed, so the digest depends on the cells alone.
func digestStore(data []byte) string {
	sum := sha256.Sum256(binaryLine.ReplaceAll(data, nil))
	return hex.EncodeToString(sum[:])
}

// storeSize is the on-disk size of a store: its index plus every segment.
func storeSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	total := fi.Size()
	segs, err := os.ReadDir(path + ".d")
	if err != nil {
		return 0, err
	}
	for _, e := range segs {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func removeStore(path string) error {
	if err := os.RemoveAll(path + ".d"); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process, so the next peakRSSMB covers only what ran in between. Where the
// kernel refuses, the peak covers the process lifetime instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
