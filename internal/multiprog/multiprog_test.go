package multiprog

import (
	"reflect"
	"testing"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

func simCfg() sim.Config {
	return sim.Config{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 12}
}

func mkDP() prefetch.Prefetcher { return core.NewDistance(256, 1, 2) }

func pair() []workload.Workload {
	a, ok1 := workload.ByName("galgel")
	b, ok2 := workload.ByName("gap")
	if !ok1 || !ok2 {
		panic("missing workloads")
	}
	return []workload.Workload{a, b}
}

// slicesInterleaved schedules materialized per-process streams the way
// the sweep runner schedules its sources: a StreamInterleaver over one
// slice reader per process.
func slicesInterleaved(streams [][]trace.Ref, quantum uint64) *StreamInterleaver {
	srcs := make([]trace.BatchReader, len(streams))
	for i, s := range streams {
		srcs[i] = trace.NewSliceReader(s)
	}
	return NewStreamInterleaver(srcs, quantum)
}

// runMix is one multiprogrammed cell on the production path: refsTotal is
// split across the workloads (see Split), each share is materialized with
// workload.Generate, and an Exec under (policy, asid) is fed from a
// StreamInterleaver over the streams.
func runMix(t *testing.T, ws []workload.Workload, refsTotal, quantum uint64, policy Policy, asid ASIDMode) ExecResult {
	t.Helper()
	shares := Split(refsTotal, len(ws))
	streams := make([][]trace.Ref, len(ws))
	for i, w := range ws {
		buf := make([]trace.Ref, 0, shares[i])
		workload.Generate(w, shares[i], func(pc, vaddr uint64) bool {
			buf = append(buf, trace.Ref{PC: pc, VAddr: vaddr})
			return true
		})
		streams[i] = buf
	}
	it := slicesInterleaved(streams, quantum)
	e := NewExec(simCfg(), policy, asid, len(ws), mkDP)
	for {
		proc, pc, vaddr, ok := it.Next()
		if !ok {
			break
		}
		e.Ref(proc, pc, vaddr)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return e.Results()
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, p := range []Policy{Retain, Flush, PerProcess} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy renders empty")
	}
	if _, err := ParsePolicy("keep"); err == nil {
		t.Fatal("bad policy parsed")
	}
}

func TestASIDStringRoundTrip(t *testing.T) {
	for _, m := range []ASIDMode{ASIDFlush, ASIDTagged} {
		got, err := ParseASID(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseASID(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseASID("asid"); err == nil {
		t.Fatal("bad asid mode parsed")
	}
}

func TestSplitSumsAndSpreads(t *testing.T) {
	for _, tc := range []struct {
		total uint64
		n     int
		want  []uint64
	}{
		{10, 2, []uint64{5, 5}},
		{11, 2, []uint64{6, 5}},
		{7, 3, []uint64{3, 2, 2}},
		{2, 3, []uint64{1, 1, 0}},
	} {
		got := Split(tc.total, tc.n)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Split(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
		}
	}
}

// synthetic per-process streams where every address names the process, so
// the schedule is fully checkable.
func taggedStreams(lens ...int) [][]trace.Ref {
	out := make([][]trace.Ref, len(lens))
	for p, n := range lens {
		s := make([]trace.Ref, n)
		for i := range s {
			s[i] = trace.Ref{PC: uint64(p)<<32 | uint64(i), VAddr: uint64(i) << 12}
		}
		out[p] = s
	}
	return out
}

func TestInterleaverSchedule(t *testing.T) {
	// Quantum 3 over streams of 5 and 4: p0 runs 3, p1 runs 3, p0 runs its
	// last 2 (stream ends mid-quantum → switch), p1 runs its last 1.
	it := slicesInterleaved(taggedStreams(5, 4), 3)
	var procs []int
	for {
		p, _, _, ok := it.Next()
		if !ok {
			break
		}
		procs = append(procs, p)
	}
	want := []int{0, 0, 0, 1, 1, 1, 0, 0, 1}
	if !reflect.DeepEqual(procs, want) {
		t.Fatalf("schedule = %v, want %v", procs, want)
	}
}

func TestInterleaverLoneSurvivorKeepsRunning(t *testing.T) {
	// Once one stream is exhausted the survivor must run uninterrupted:
	// the process id sequence may not switch away and back.
	it := slicesInterleaved(taggedStreams(2, 10), 2)
	var procs []int
	for {
		p, _, _, ok := it.Next()
		if !ok {
			break
		}
		procs = append(procs, p)
	}
	if len(procs) != 12 {
		t.Fatalf("total refs = %d, want 12", len(procs))
	}
	// Everything after p0's last reference must be p1, uninterrupted.
	last0 := -1
	for i, p := range procs {
		if p == 0 {
			last0 = i
		}
	}
	for i := last0 + 1; i < len(procs); i++ {
		if procs[i] != 1 {
			t.Fatalf("after p0 exhausted, schedule %v switches again", procs)
		}
	}
}

func TestInterleaverAppliesASIDTags(t *testing.T) {
	it := slicesInterleaved(taggedStreams(2, 2), 1)
	for {
		p, _, vaddr, ok := it.Next()
		if !ok {
			break
		}
		if got := vaddr >> ASIDShift; got != uint64(p+1) {
			t.Fatalf("proc %d address tagged %d", p, got)
		}
	}
}

func TestInterleaverZeroLengthStreamNeverRuns(t *testing.T) {
	it := slicesInterleaved(taggedStreams(0, 3), 2)
	n := 0
	for {
		p, _, _, ok := it.Next()
		if !ok {
			break
		}
		if p != 1 {
			t.Fatalf("empty stream's process %d was scheduled", p)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("refs = %d, want 3", n)
	}
}

// TestNoSpuriousFlushAtQuantumBoundary pins the satellite fix: a lone
// process hitting quantum boundaries must behave exactly like a
// single-process run — no flushes of any kind, under any policy/ASID pair.
func TestNoSpuriousFlushAtQuantumBoundary(t *testing.T) {
	w := pair()[0]
	var refs []trace.Ref
	workload.Generate(w, 50_000, func(pc, vaddr uint64) bool {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})

	// Reference: one simulator fed the same tagged stream directly.
	ref := sim.New(simCfg(), mkDP())
	for _, r := range refs {
		ref.Ref(r.PC, r.VAddr|1<<ASIDShift)
	}
	want := ref.Stats()

	for _, pol := range []Policy{Retain, Flush, PerProcess} {
		for _, asid := range []ASIDMode{ASIDFlush, ASIDTagged} {
			// Tiny quantum: thousands of quantum expiries, zero real
			// switches (the second "process" has an empty stream).
			it := slicesInterleaved([][]trace.Ref{refs, nil}, 100)
			e := NewExec(simCfg(), pol, asid, 2, mkDP)
			for {
				p, pc, vaddr, ok := it.Next()
				if !ok {
					break
				}
				e.Ref(p, pc, vaddr)
			}
			got := e.Results().Aggregate
			if got != want {
				t.Errorf("%v/%v: lone process diverges from single-process run:\n got %+v\nwant %+v",
					pol, asid, got, want)
			}
		}
	}
}

func TestRunBasics(t *testing.T) {
	res := runMix(t, pair(), 200_000, 10_000, Retain, ASIDFlush)
	agg := res.Aggregate
	if agg.Refs == 0 || agg.Misses == 0 {
		t.Fatalf("empty run: %+v", agg)
	}
	if agg.Refs != 200_000 {
		t.Fatalf("refs %d, want the full budget", agg.Refs)
	}
	// Coverage: the fraction of TLB misses the prefetch buffer absorbed,
	// the metric the paper calls prediction accuracy.
	if c := agg.Accuracy(); c < 0 || c > 1 {
		t.Fatalf("coverage %v", c)
	}
	if agg.PrefetchesIssued == 0 || agg.PrefetchesUnused > agg.PrefetchesIssued {
		t.Fatalf("prefetch accounting: issued %d, unused %d", agg.PrefetchesIssued, agg.PrefetchesUnused)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	var appRefs, appMisses uint64
	for _, a := range res.Apps {
		appRefs += a.Refs
		appMisses += a.Misses
		if a.PrefetchesUnused != 0 {
			t.Fatalf("per-app unused prefetches attributed: %+v", a)
		}
	}
	if appRefs != agg.Refs {
		t.Fatalf("per-app refs sum %d != aggregate %d", appRefs, agg.Refs)
	}
	if appMisses != agg.Misses {
		t.Fatalf("per-app misses sum %d != aggregate %d", appMisses, agg.Misses)
	}
}

func TestFlushNeverBeatsPerProcess(t *testing.T) {
	for _, q := range []uint64{5_000, 50_000} {
		flush := runMix(t, pair(), 300_000, q, Flush, ASIDFlush).Aggregate.Accuracy()
		perProc := runMix(t, pair(), 300_000, q, PerProcess, ASIDFlush).Aggregate.Accuracy()
		if flush > perProc+0.02 {
			t.Errorf("quantum %d: flush %.3f beats per-process %.3f", q, flush, perProc)
		}
	}
}

func TestFlushPenaltyShrinksWithQuantum(t *testing.T) {
	small := runMix(t, pair(), 300_000, 2_000, Flush, ASIDFlush).Aggregate.Accuracy()
	large := runMix(t, pair(), 300_000, 100_000, Flush, ASIDFlush).Aggregate.Accuracy()
	if small > large {
		t.Errorf("flush at small quantum %.3f should not beat large quantum %.3f", small, large)
	}
}

func TestTaggedNeverLosesToASIDFlush(t *testing.T) {
	// Keeping translations resident across switches can only help a
	// round-robin pair (they contend for capacity but lose no state).
	flush := runMix(t, pair(), 300_000, 5_000, Retain, ASIDFlush).Aggregate
	tagged := runMix(t, pair(), 300_000, 5_000, Retain, ASIDTagged).Aggregate
	if tagged.Misses > flush.Misses {
		t.Errorf("tagged TLB misses %d exceed flushed %d", tagged.Misses, flush.Misses)
	}
}

func TestDeterministic(t *testing.T) {
	a := runMix(t, pair(), 100_000, 7_000, Retain, ASIDTagged)
	b := runMix(t, pair(), 100_000, 7_000, Retain, ASIDTagged)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multiprogrammed run not deterministic: %+v vs %+v", a, b)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero quantum")
		}
	}()
	runMix(t, pair(), 1000, 0, Retain, ASIDFlush)
}
