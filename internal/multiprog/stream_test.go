package multiprog

import (
	"errors"
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

// TestStreamInterleaverMatchesSlice is the differential contract: over any
// stream shapes (unequal lengths, empty members, quantum larger than a
// stream, buffer-boundary crossings) the streaming interleaver must emit
// the exact schedule of the slice interleaver over the materialized
// streams.
func TestStreamInterleaverMatchesSlice(t *testing.T) {
	cases := []struct {
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
	for ci, tc := range cases {
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

// sliceBatch wraps a SliceReader to hide its native batching, exercising
// the io.EOF refill path through the adapter too.
type singleRef struct{ r trace.Reader }

func (s singleRef) ReadBatch(dst []trace.Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	ref, err := s.r.Read()
	if err != nil {
		return 0, err
	}
	dst[0] = ref
	return 1, nil
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
