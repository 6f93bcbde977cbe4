package workload

import (
	"testing"

	"tlbprefetch/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 56 {
		t.Fatalf("registered %d workloads, want 56 (the paper's application count)", len(all))
	}
	counts := map[string]int{}
	for _, w := range all {
		counts[w.Suite]++
	}
	want := map[string]int{"SPEC": 26, "MediaBench": 20, "Etch": 5, "PointerIntensive": 5}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d workloads, want %d", suite, counts[suite], n)
		}
	}
}

func TestRegistryFieldsAndUniqueness(t *testing.T) {
	names := map[string]bool{}
	seeds := map[uint64]string{}
	for _, w := range All() {
		if names[w.Name] {
			t.Errorf("duplicate name %q", w.Name)
		}
		names[w.Name] = true
		if prev, dup := seeds[w.Seed]; dup {
			t.Errorf("workloads %q and %q share seed %#x", prev, w.Name, w.Seed)
		}
		seeds[w.Seed] = w.Name
		if w.PaperNote == "" {
			t.Errorf("workload %q has no paper note", w.Name)
		}
		if w.Build == nil {
			t.Errorf("workload %q has no builder", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("swim")
	if !ok || w.Name != "swim" || w.Suite != "SPEC" {
		t.Fatalf("ByName(swim) = %+v, %v", w, ok)
	}
	if _, ok := ByName("no-such-app"); ok {
		t.Fatal("ByName invented a workload")
	}
}

func TestSuiteOrderStable(t *testing.T) {
	spec := Suite("SPEC")
	if len(spec) != 26 {
		t.Fatalf("SPEC suite has %d entries", len(spec))
	}
	// Paper figure order: gzip leads Figure 7.
	if spec[0].Name != "gzip" {
		t.Fatalf("first SPEC workload = %q, want gzip", spec[0].Name)
	}
	if len(All()) != 56 {
		t.Fatalf("All() returned %d workloads", len(All()))
	}
}

func TestGenerateExactBudget(t *testing.T) {
	w, _ := ByName("gzip")
	var n uint64
	got := Generate(w, 10000, func(pc, vaddr uint64) bool {
		n++
		return true
	})
	if got != 10000 || n != 10000 {
		t.Fatalf("generated %d (callback saw %d), want 10000", got, n)
	}
}

func TestGenerateSinkStops(t *testing.T) {
	w, _ := ByName("gzip")
	var n uint64
	got := Generate(w, 10000, func(pc, vaddr uint64) bool {
		n++
		return n < 100
	})
	if got != 100 || n != 100 {
		t.Fatalf("early stop: generated %d, callback saw %d, want 100", got, n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "swim", "gsm-enc", "fma3d", "winword"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		h1 := streamHash(w, 50000)
		h2 := streamHash(w, 50000)
		if h1 != h2 {
			t.Errorf("%s: stream not deterministic", name)
		}
	}
}

func streamHash(w Workload, n uint64) uint64 {
	var h uint64 = 14695981039346656037
	Generate(w, n, func(pc, vaddr uint64) bool {
		h = (h ^ pc) * 1099511628211
		h = (h ^ vaddr) * 1099511628211
		return true
	})
	return h
}

func TestDistinctWorkloadsDiffer(t *testing.T) {
	a, _ := ByName("gzip")
	b, _ := ByName("mcf")
	if streamHash(a, 20000) == streamHash(b, 20000) {
		t.Fatal("distinct workloads produced identical streams")
	}
}

// TestReaderMatchesGenerate drains a workload's Stream as a plain trace
// reader through trace.CopyBatch (the facade's CopyTrace) and checks the
// copied stream is exactly Generate's.
func TestReaderMatchesGenerate(t *testing.T) {
	w, _ := ByName("parser")
	direct := generated(w, 5000)
	var sw trace.SliceWriter
	s := NewStream(w, 5000)
	n, err := trace.CopyBatch(&sw, s)
	if err != nil || n != 5000 {
		t.Fatalf("CopyBatch = %d, %v; want 5000, nil", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if sw.Refs[i] != direct[i] {
			t.Fatalf("ref %d: reader %v != generate %v", i, sw.Refs[i], direct[i])
		}
	}
}

func TestGenerateTo(t *testing.T) {
	w, _ := ByName("bc")
	var sw trace.SliceWriter
	n, err := GenerateTo(w, 3000, &sw)
	if err != nil || n != 3000 || len(sw.Refs) != 3000 {
		t.Fatalf("GenerateTo = %d, %v (%d refs)", n, err, len(sw.Refs))
	}
}

func TestGenerateEmptyWorkload(t *testing.T) {
	if n := Generate(Workload{}, 100, func(pc, vaddr uint64) bool { return true }); n != 0 {
		t.Fatalf("empty workload generated %d refs", n)
	}
	w := Workload{Name: "x", Build: func() []Phase { return nil }}
	if n := Generate(w, 100, func(pc, vaddr uint64) bool { return true }); n != 0 {
		t.Fatalf("phase-less workload generated %d refs", n)
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register accepted a nameless workload")
		}
	}()
	register(Workload{})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register accepted a duplicate name")
		}
	}()
	register(Workload{Name: "gzip", Build: func() []Phase { return nil }})
}

func BenchmarkGenerate(b *testing.B) {
	w, _ := ByName("swim")
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		Generate(w, 100000, func(pc, vaddr uint64) bool {
			sink ^= vaddr
			return true
		})
	}
	_ = sink
}
