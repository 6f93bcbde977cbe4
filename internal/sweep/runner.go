package sweep

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// ProgressEvent reports one settled cell (from cache or freshly run).
type ProgressEvent struct {
	// Done cells out of Total have settled, this one included.
	Done, Total int
	// Cached is true when the cell was satisfied from the store.
	Cached bool
	Result Result
}

// Summary counts how a run's cells were satisfied.
type Summary struct {
	Total  int // cells requested
	Cached int // satisfied from the store without simulating
	Ran    int // freshly simulated
	Shards int // worker units the fresh cells were coalesced into
}

// Runner executes sweep jobs. The zero value runs everything with
// GOMAXPROCS workers and no caching; set Store to skip cells whose key
// hash is already present (and to record fresh ones).
type Runner struct {
	// Store, when non-nil, is consulted before running each cell and
	// updated with every fresh result.
	Store *Store
	// Workers bounds the worker pool (0 = GOMAXPROCS). The results are
	// bit-identical for any worker count.
	Workers int
	// Resolve maps a job's workload name to its model. Nil uses the
	// global registry (workload.ByName).
	Resolve func(name string) (workload.Workload, bool)
	// OpenTrace opens a trace source's reference stream. Nil opens
	// Source.TracePath from the filesystem (after verifying the file
	// still hashes to the key's digest); tests may substitute in-memory
	// streams, in which case digest verification is the caller's problem.
	OpenTrace func(src Source) (trace.BatchReader, io.Closer, error)
	// Progress, when non-nil, is called once per settled cell. Calls are
	// serialized; the callback must not invoke the Runner reentrantly.
	Progress func(ProgressEvent)
}

// shardKey identifies cells that can share one stream pass and one
// shared TLB frontend: the same streams (the canonical member sources, see
// Key.Sources, plus a mix's quantum), seed, length, warmup and TLB-frontend
// geometry. Buffer size, mechanism, the cycle model (functional or any
// timing point) and, in mix shards, the switch policy and ASID mode may
// differ within a shard: they live in the per-member back half.
type shardKey struct {
	streams   string
	quantum   uint64
	tlbCfg    tlb.Config
	pageShift uint
	refs      uint64
	warmup    uint64
	seed      uint64
}

// newShardKey derives a cell's shard key from its canonical key.
func newShardKey(k Key) shardKey {
	var b strings.Builder
	for _, s := range k.Sources() {
		b.WriteString(s.Workload)
		b.WriteByte(0)
		b.WriteString(s.TraceSHA256)
		b.WriteByte(0)
	}
	sk := shardKey{
		streams:   b.String(),
		tlbCfg:    tlb.Config{Entries: k.TLBEntries, Ways: k.TLBWays},
		pageShift: k.PageShift,
		refs:      k.Refs,
		warmup:    k.Warmup,
		seed:      k.Seed,
	}
	if k.Mix != nil {
		sk.quantum = k.Mix.Quantum
	}
	return sk
}

// Run executes the jobs, returning one result per job in input order plus
// a summary of cache behaviour. Jobs whose key hash is present in the
// store are returned from cache; the rest are sharded across the worker
// pool. Results are deterministic: independent of worker count, shard
// order, and of which other cells the sweep contains.
func (r *Runner) Run(jobs []Job) ([]Result, Summary, error) {
	sum := Summary{Total: len(jobs)}
	out := make([]Result, len(jobs))
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, sum, fmt.Errorf("job %d (%s/%s): %w", i, j.SourceLabel(), j.Mech.Label(), err)
		}
		hashes[i] = j.Key().Hash()
	}

	resolve := r.Resolve
	if resolve == nil {
		resolve = workload.ByName
	}

	// Settle cached cells first, then coalesce the rest into shards: each
	// shard is the indices of its cells, in input order.
	done := 0
	byKey := make(map[shardKey]int)
	verified := make(map[string]string) // trace path -> actual file digest
	var shards [][]int
	for i, j := range jobs {
		if r.Store != nil {
			res, ok, err := r.Store.Get(hashes[i])
			if err != nil {
				return nil, sum, err
			}
			if ok {
				out[i] = res
				sum.Cached++
				done++
				if r.Progress != nil {
					r.Progress(ProgressEvent{Done: done, Total: len(jobs), Cached: true, Result: res})
				}
				continue
			}
		}
		for mi, src := range j.Sources() {
			if err := r.checkSource(src, resolve, verified); err != nil {
				if j.Mix != nil {
					return nil, sum, fmt.Errorf("job %d mix member %d: %w", i, mi, err)
				}
				return nil, sum, fmt.Errorf("job %d: %w", i, err)
			}
		}
		k := newShardKey(j.Key())
		si, ok := byKey[k]
		if !ok {
			si = len(shards)
			byKey[k] = si
			shards = append(shards, nil)
		}
		shards[si] = append(shards[si], i)
	}
	sum.Ran = len(jobs) - sum.Cached
	sum.Shards = len(shards)
	if len(shards) == 0 {
		return out, sum, nil
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	var (
		mu   sync.Mutex // guards done + Progress
		wg   sync.WaitGroup
		work = make(chan int)
		errs = make([]error, len(shards))
	)
	settle := func(idx int, res Result) {
		out[idx] = res
		if r.Store != nil {
			r.Store.Put(res)
		}
		mu.Lock()
		done++
		if r.Progress != nil {
			r.Progress(ProgressEvent{Done: done, Total: len(jobs), Result: res})
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range work {
				errs[si] = r.runShard(shards[si], jobs, resolve, settle)
			}
		}()
	}
	for si := range shards {
		work <- si
	}
	close(work)
	wg.Wait()
	// Report the first failure in shard-creation order, so the error is
	// deterministic regardless of worker scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, sum, err
		}
	}
	return out, sum, nil
}

// checkSource checks that a source can run before its shard starts: a
// synthetic workload must resolve, and a trace's expected digest must match
// the file's actual one (digested once per path per Run, compared once per
// source) so a stale or swapped file cannot be silently simulated under
// another recording's key. The digest check is skipped when the caller
// supplies OpenTrace.
func (r *Runner) checkSource(src Source, resolve func(string) (workload.Workload, bool), verified map[string]string) error {
	if !src.IsTrace() {
		if _, ok := resolve(src.Workload); !ok {
			return fmt.Errorf("unknown workload %q", src.Workload)
		}
		return nil
	}
	if r.OpenTrace != nil {
		return nil
	}
	if src.TracePath == "" {
		return fmt.Errorf("sweep: trace source %s has no local path to run from", src.Label())
	}
	digest, ok := verified[src.TracePath]
	if !ok {
		var err error
		digest, err = trace.DigestFile(src.TracePath)
		if err != nil {
			return err
		}
		verified[src.TracePath] = digest
	}
	if digest != src.TraceSHA256 {
		return fmt.Errorf("sweep: %s hashes to %.12s…, key expects %.12s… — the file changed since the grid was declared",
			src.TracePath, digest, src.TraceSHA256)
	}
	return nil
}

// openTrace resolves the trace-opening hook.
func (r *Runner) openTrace() func(src Source) (trace.BatchReader, io.Closer, error) {
	if r.OpenTrace != nil {
		return r.OpenTrace
	}
	return func(src Source) (trace.BatchReader, io.Closer, error) {
		return trace.OpenFile(src.TracePath)
	}
}

// runShard simulates one shard — the indices of its cells — in one pass
// over the reference stream feeding every member cell. The shard key makes
// the stream parameters of every member equal, so they are read from the
// first job, whose sources also carry the local trace paths.
func (r *Runner) runShard(shard []int, jobs []Job, resolve func(string) (workload.Workload, bool), settle func(int, Result)) error {
	first := jobs[shard[0]]
	if first.Mix != nil {
		return r.runMixShard(shard, jobs, resolve, settle)
	}

	// The shard key makes every member's TLB geometry and page shift the
	// same, so all of them share one front via sim.Group: the first
	// member's TLB and reference count (buffer sizes and the cycle model
	// may differ — they live in the per-member back half). Timed cells join
	// as the Simulator of a TimingSimulator, which also settles their
	// cycles, beside functional ones. Cells of one mechanism configuration
	// share its instance, which the group asks once per miss.
	g := sim.NewGroup()
	timed := make([]*sim.TimingSimulator, len(shard))
	built := make(map[Mech]prefetch.Prefetcher)
	for mi, idx := range shard {
		j := jobs[idx]
		pf := j.Mech.buildShared(built)
		if j.Timing != nil {
			timed[mi] = sim.NewTiming(j.Timing.Config(j.Config), pf)
			g.Add(timed[mi].Simulator)
		} else {
			g.Add(sim.New(j.Config, pf))
		}
	}
	b, closer, err := r.memberStream(first.Source, first.Seed, first.Warmup+first.Refs, resolve)
	if err != nil {
		return err
	}
	defer closer.Close()
	var buf [trace.BatchSize]trace.Ref
	warm, seen := first.Warmup, uint64(0)
	for {
		n, err := b.ReadBatch(buf[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		refs := buf[:n]
		if seen < warm && seen+uint64(n) >= warm {
			// The warmup boundary falls inside this chunk: split there so
			// the counters reset after exactly warm references, as the
			// per-reference path did.
			k := warm - seen
			g.RefBatch(refs[:k])
			for _, s := range g.Members() {
				s.ResetStats()
			}
			g.RefBatch(refs[k:])
		} else {
			g.RefBatch(refs)
		}
		seen += uint64(n)
	}
	for mi, s := range g.Members() {
		idx := shard[mi]
		if timed[mi] != nil {
			st := timed[mi].Stats()
			settle(idx, Result{Key: jobs[idx].Key(), Stats: st.Stats, Timing: &st})
			continue
		}
		settle(idx, Result{Key: jobs[idx].Key(), Stats: s.Stats()})
	}
	return nil
}

// boundedTrace clips a trace's stream to the references its cells need (a
// shard's whole budget, or one mix member's share): it delivers exactly
// total references, reports EOF after them, and turns a premature end of
// the recording into the shortfall error.
type boundedTrace struct {
	src   trace.BatchReader
	label string
	got   uint64
	total uint64
}

// ReadBatch implements trace.BatchReader.
func (b *boundedTrace) ReadBatch(dst []trace.Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if b.got == b.total {
		return 0, io.EOF
	}
	if rem := b.total - b.got; uint64(len(dst)) > rem {
		dst = dst[:rem]
	}
	n, err := b.src.ReadBatch(dst)
	if err == io.EOF {
		return 0, fmt.Errorf("sweep: trace %s ends after %d of the %d references the cells need from it",
			b.label, b.got, b.total)
	}
	if err != nil {
		return 0, err
	}
	b.got += uint64(n)
	return n, nil
}

// memberStream opens one source's reference stream, clipped to n
// references, as a batch reader: a single-source shard's whole budget
// (warmup included), or a mix member's share, which the interleaver
// rotates over without materializing it. Synthetic sources are pulled from
// the workload model, at seed when it is nonzero and at the registry seed
// otherwise (mix members pass 0: mix cells carry no seed axis); trace
// sources replay the recording and fail if it ends early. The returned
// closer (never nil) must be closed even when the stream is abandoned
// mid-way.
func (r *Runner) memberStream(src Source, seed, n uint64, resolve func(string) (workload.Workload, bool)) (trace.BatchReader, io.Closer, error) {
	if !src.IsTrace() {
		w, _ := resolve(src.Workload) // presence checked during sharding
		if seed != 0 {
			w.Seed = seed
		}
		s := workload.NewStream(w, n)
		return s, s, nil
	}
	tr, closer, err := r.openTrace()(src)
	if err != nil {
		return nil, nil, err
	}
	if closer == nil {
		closer = io.NopCloser(nil)
	}
	return &boundedTrace{src: tr, label: src.Label(), total: n}, closer, nil
}

// runMixShard simulates one mix shard: the cell's reference budget is split
// across the member sources, each member stream is opened as a bounded
// batch reader, and a single streaming round-robin interleaving pass feeds
// every member cell's Exec a run at a time — no member stream is ever
// materialized. The interleaver tags addresses unconditionally, so cells
// differing in switch policy, ASID mode, mechanism or buffer size consume
// the identical stream — exactly what the shard key promises — and the
// cells of one ASID mode share one TLB frontend (multiprog.Group).
func (r *Runner) runMixShard(shard []int, jobs []Job, resolve func(string) (workload.Workload, bool), settle func(int, Result)) error {
	first := jobs[shard[0]]
	srcs := first.Sources()
	shares := multiprog.Split(first.Refs, len(srcs))
	streams := make([]trace.BatchReader, len(srcs))
	for i, src := range srcs {
		s, closer, err := r.memberStream(src, 0, shares[i], resolve)
		if err != nil {
			return err
		}
		defer closer.Close()
		streams[i] = s
	}

	execs := make([]*multiprog.Exec, len(shard))
	for mi, idx := range shard {
		j := jobs[idx]
		m := j.Mix.Canonical()
		pol, err := multiprog.ParsePolicy(m.Policy)
		if err != nil {
			return err
		}
		asid, err := multiprog.ParseASID(m.ASID)
		if err != nil {
			return err
		}
		mech := j.Mech
		execs[mi] = multiprog.NewExec(j.Config, pol, asid, len(streams), func() prefetch.Prefetcher {
			return mech.Build()
		})
	}

	g := multiprog.NewGroup(execs...)
	it := multiprog.NewStreamInterleaver(streams, first.Mix.Canonical().Quantum)
	for {
		proc, run, ok := it.NextRun()
		if !ok {
			break
		}
		g.RefBatch(proc, run)
	}
	if err := it.Err(); err != nil {
		return err
	}
	for mi, idx := range shard {
		res := execs[mi].Results()
		settle(idx, Result{Key: jobs[idx].Key(), Stats: res.Aggregate, Apps: res.Apps})
	}
	return nil
}
