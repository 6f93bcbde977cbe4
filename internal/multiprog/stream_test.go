package multiprog

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// mixStreams builds per-process streams of the given lengths from distinct
// workload models.
func mixStreams(t *testing.T, lens []uint64) [][]trace.Ref {
	t.Helper()
	names := []string{"swim", "gzip", "mcf", "gap"}
	out := make([][]trace.Ref, len(lens))
	for i, n := range lens {
		w, ok := workload.ByName(names[i%len(names)])
		if !ok {
			t.Fatal("workload missing")
		}
		buf := make([]trace.Ref, 0, n)
		workload.Generate(w, n, func(pc, vaddr uint64) bool {
			buf = append(buf, trace.Ref{PC: pc, VAddr: vaddr})
			return true
		})
		out[i] = buf
	}
	return out
}

// matchCases are the stream shapes the differential contract runs:
// unequal lengths, empty members, quantum larger than a stream and
// buffer-boundary crossings.
var matchCases = []struct {
	lens    []uint64
	quantum uint64
}{
	{[]uint64{10, 10}, 3},
	{[]uint64{100, 7, 0, 55}, 10},
	{[]uint64{1, 1, 1}, 5},
	{[]uint64{9000, 5000}, 1000},     // crosses the 4096 refill boundary
	{[]uint64{4096, 4096, 4097}, 64}, // exactly at the boundary
	{[]uint64{20, 20}, 1000},         // quantum exceeds every stream
}

// TestStreamInterleaverMatchesSlice is the differential contract: over any
// stream shapes (unequal lengths, empty members, quantum larger than a
// stream, buffer-boundary crossings) the streaming interleaver must emit
// the exact schedule of the slice interleaver over the materialized
// streams.
func TestStreamInterleaverMatchesSlice(t *testing.T) {
	for ci, tc := range matchCases {
		streams := mixStreams(t, tc.lens)
		want := newSliceInterleaver(streams, tc.quantum)
		srcs := make([]trace.BatchReader, len(streams))
		for i, s := range streams {
			srcs[i] = trace.NewSliceReader(s)
		}
		got := NewStreamInterleaver(srcs, tc.quantum)
		for step := 0; ; step++ {
			wp, wpc, wva, wok := want.Next()
			gp, gpc, gva, gok := got.Next()
			if wok != gok {
				t.Fatalf("case %d step %d: ok %v != %v", ci, step, gok, wok)
			}
			if !wok {
				break
			}
			if wp != gp || wpc != gpc || wva != gva {
				t.Fatalf("case %d step %d: got (%d,%#x,%#x), want (%d,%#x,%#x)",
					ci, step, gp, gpc, gva, wp, wpc, wva)
			}
		}
		if err := got.Err(); err != nil {
			t.Fatalf("case %d: unexpected stream error %v", ci, err)
		}
	}
}

// checkRuns drains got through NextRun and checks it against the slice
// model: the concatenated runs are the model's stream; each run belongs to
// one process and one quantum, and is the longest such slice of a chunk —
// it stops only at its quantum end or at a chunk end (every chunk sources
// hand out holds chunk references, the last one possibly fewer); and a
// returned run is unchanged until the next call.
func checkRuns(t *testing.T, name string, got *StreamInterleaver, want *sliceInterleaver, chunk int) {
	t.Helper()
	var prev, snap []trace.Ref
	quantum := 0 // the model's quantum count, bumped at each rotation
	for {
		if !reflect.DeepEqual(prev, snap) {
			t.Fatalf("%s: a run changed before the next call", name)
		}
		proc, run, ok := got.NextRun()
		if !ok {
			break
		}
		if len(run) == 0 {
			t.Fatalf("%s: empty run", name)
		}
		q := -1
		for i, r := range run {
			if want.left == 0 {
				quantum++
			}
			if q < 0 {
				q = quantum
			}
			wp, wpc, wva, wok := want.Next()
			if !wok {
				t.Fatalf("%s: run outlives the model's stream", name)
			}
			if wp != proc || wpc != r.PC || wva != r.VAddr {
				t.Fatalf("%s: run ref %d is (%d,%#x,%#x), want (%d,%#x,%#x)",
					name, i, proc, r.PC, r.VAddr, wp, wpc, wva)
			}
			if quantum != q {
				t.Fatalf("%s: run of process %d crosses a quantum end", name, proc)
			}
		}
		if want.left != 0 && want.pos[proc]%chunk != 0 {
			t.Fatalf("%s: run of process %d stops at %d, neither a quantum nor a chunk end",
				name, proc, want.pos[proc])
		}
		prev, snap = run, append(snap[:0], run...)
	}
	if _, _, _, ok := want.Next(); ok {
		t.Fatalf("%s: runs end before the model's stream", name)
	}
	if err := got.Err(); err != nil {
		t.Fatalf("%s: unexpected stream error %v", name, err)
	}
}

// TestStreamInterleaverRunsMatchSlice runs the differential contract's
// cases, and the one-reference-batch case, through NextRun.
func TestStreamInterleaverRunsMatchSlice(t *testing.T) {
	for ci, tc := range matchCases {
		streams := mixStreams(t, tc.lens)
		srcs := make([]trace.BatchReader, len(streams))
		for i, s := range streams {
			srcs[i] = trace.NewSliceReader(s)
		}
		checkRuns(t, fmt.Sprintf("case %d", ci), NewStreamInterleaver(srcs, tc.quantum),
			newSliceInterleaver(streams, tc.quantum), trace.BatchSize)
	}
	streams := mixStreams(t, []uint64{33, 17})
	checkRuns(t, "one-ref batches", NewStreamInterleaver([]trace.BatchReader{
		singleRef{trace.NewSliceReader(streams[0])},
		singleRef{trace.NewSliceReader(streams[1])},
	}, 5), newSliceInterleaver(streams, 5), 1)
}

// TestStreamInterleaverRunsSurfaceSourceError pins that NextRun delivers
// exactly the references Next delivers before a source error, then stops
// with the same error.
func TestStreamInterleaverRunsSurfaceSourceError(t *testing.T) {
	boom := errors.New("boom")
	ok := mixStreams(t, []uint64{5000})[0]
	for _, tc := range []struct{ n, quantum int }{{10, 4}, {4096, 100}, {5000, 3000}, {0, 4}} {
		mk := func() *StreamInterleaver {
			return NewStreamInterleaver([]trace.BatchReader{
				trace.NewSliceReader(ok),
				&errAfter{n: tc.n, err: boom},
			}, uint64(tc.quantum))
		}
		var want []trace.Ref
		var wantProcs []int
		it := mk()
		for {
			p, pc, va, ok := it.Next()
			if !ok {
				break
			}
			want = append(want, trace.Ref{PC: pc, VAddr: va})
			wantProcs = append(wantProcs, p)
		}
		var got []trace.Ref
		var gotProcs []int
		it2 := mk()
		for {
			p, run, ok := it2.NextRun()
			if !ok {
				break
			}
			for _, r := range run {
				got = append(got, r)
				gotProcs = append(gotProcs, p)
			}
		}
		if !errors.Is(it.Err(), boom) || !errors.Is(it2.Err(), boom) {
			t.Fatalf("n=%d: Err() = %v via Next, %v via NextRun; want the source error", tc.n, it.Err(), it2.Err())
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotProcs, wantProcs) {
			t.Fatalf("n=%d: NextRun delivered %d refs before the error, Next %d", tc.n, len(got), len(want))
		}
	}
}

// errAfter yields n refs then a non-EOF error.
type errAfter struct {
	n   int
	err error
}

func (e *errAfter) ReadBatch(dst []trace.Ref) (int, error) {
	if e.n == 0 {
		return 0, e.err
	}
	k := len(dst)
	if k > e.n {
		k = e.n
	}
	for i := 0; i < k; i++ {
		dst[i] = trace.Ref{PC: 1, VAddr: uint64(i)}
	}
	e.n -= k
	return k, nil
}

func TestStreamInterleaverSurfacesSourceError(t *testing.T) {
	boom := errors.New("boom")
	srcs := []trace.BatchReader{
		trace.NewSliceReader(mixStreams(t, []uint64{50})[0]),
		&errAfter{n: 10, err: boom},
	}
	it := NewStreamInterleaver(srcs, 4)
	n := 0
	for {
		_, _, _, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if !errors.Is(it.Err(), boom) {
		t.Fatalf("Err() = %v, want the source error", it.Err())
	}
	if n == 0 {
		t.Fatal("no references delivered before the error surfaced")
	}
}

// singleRef delivers a batch reader's stream one reference per call,
// exercising the interleaver's refill path at its smallest batch.
type singleRef struct{ r trace.BatchReader }

func (s singleRef) ReadBatch(dst []trace.Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	return s.r.ReadBatch(dst[:1])
}

func TestStreamInterleaverOneRefBatches(t *testing.T) {
	streams := mixStreams(t, []uint64{33, 17})
	want := newSliceInterleaver(streams, 5)
	got := NewStreamInterleaver([]trace.BatchReader{
		singleRef{trace.NewSliceReader(streams[0])},
		singleRef{trace.NewSliceReader(streams[1])},
	}, 5)
	for {
		wp, wpc, wva, wok := want.Next()
		gp, gpc, gva, gok := got.Next()
		if wok != gok || wp != gp || wpc != gpc || wva != gva {
			t.Fatalf("schedules diverge: got (%d,%#x,%#x,%v), want (%d,%#x,%#x,%v)",
				gp, gpc, gva, gok, wp, wpc, wva, wok)
		}
		if !wok {
			return
		}
	}
}
