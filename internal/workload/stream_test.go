package workload

import (
	"io"
	"testing"

	"tlbprefetch/internal/trace"
)

func generated(w Workload, n uint64) []trace.Ref {
	out := make([]trace.Ref, 0, n)
	Generate(w, n, func(pc, vaddr uint64) bool {
		out = append(out, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	return out
}

// TestStreamMatchesGenerate pins the pull contract: the pulled stream is
// exactly Generate's, for lengths around a 4096-reference batch and for
// ragged dst sizes, with every batch full except the last.
func TestStreamMatchesGenerate(t *testing.T) {
	w, ok := ByName("mcf")
	if !ok {
		t.Fatal("workload mcf missing")
	}
	for _, n := range []uint64{0, 1, 4095, 4096, 4097, 3*4096 + 17} {
		want := generated(w, n)
		for _, size := range []int{1, 7, 700, 4096, 65536} {
			s := NewStream(w, n)
			buf := make([]trace.Ref, size)
			if k, err := s.ReadBatch(buf[:0]); k != 0 || err != nil {
				t.Fatalf("n=%d: empty dst = %d, %v; want 0, nil", n, k, err)
			}
			var got []trace.Ref
			for {
				k, err := s.ReadBatch(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 || (k < size && uint64(len(got)+k) != n) {
					t.Fatalf("n=%d size=%d: short batch of %d mid-stream", n, size, k)
				}
				got = append(got, buf[:k]...)
			}
			if _, err := s.ReadBatch(buf); err != io.EOF {
				t.Fatalf("n=%d size=%d: read after EOF: %v", n, size, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d size=%d: pulled %d refs, want %d", n, size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d size=%d: ref %d = %+v, want %+v", n, size, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamClose releases the coroutine before EOF (before the first
// read, mid-batch and past a batch boundary); Close is idempotent and the
// stream reads EOF afterwards.
func TestStreamClose(t *testing.T) {
	w, _ := ByName("swim")
	for _, readFirst := range []int{0, 1, 4096 + 5} {
		s := NewStream(w, 1<<20)
		buf := make([]trace.Ref, 512)
		for read := 0; read < readFirst; {
			k, err := s.ReadBatch(buf)
			if err != nil {
				t.Fatal(err)
			}
			read += k
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadBatch(buf); err != io.EOF {
			t.Fatalf("read after Close: err=%v, want EOF", err)
		}
	}
}
