package workload

import (
	"testing"

	"tlbprefetch/internal/xrand"
)

// collect runs a phase once and returns the page sequence and PC sequence.
func collect(p Phase, seed uint64) (pages []uint64, pcs []uint64) {
	r := xrand.New(seed)
	p.Run(func(pc, vaddr uint64) bool {
		pages = append(pages, vaddr/PageBytes)
		pcs = append(pcs, pc)
		return true
	}, r)
	return pages, pcs
}

// distinctRuns returns the distinct pages in order of first touch.
func distinct(pages []uint64) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, p := range pages {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func TestSeqForward(t *testing.T) {
	pages, pcs := collect(&Seq{PC: 7, Base: 100, Pages: 3, RefsPerPage: 2}, 1)
	want := []uint64{100, 100, 101, 101, 102, 102}
	if len(pages) != len(want) {
		t.Fatalf("pages = %v", pages)
	}
	for i := range want {
		if pages[i] != want[i] || pcs[i] != 7 {
			t.Fatalf("pages = %v pcs = %v", pages, pcs)
		}
	}
}

func TestSeqBackward(t *testing.T) {
	pages, _ := collect(&Seq{PC: 7, Base: 100, Pages: 3, RefsPerPage: 1, Backward: true}, 1)
	want := []uint64{102, 101, 100}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("pages = %v, want %v", pages, want)
		}
	}
}

func TestSeqZeroRefsPerPageDefaultsToOne(t *testing.T) {
	pages, _ := collect(&Seq{PC: 1, Base: 5, Pages: 2}, 1)
	if len(pages) != 2 {
		t.Fatalf("pages = %v", pages)
	}
}

func TestStrideNegative(t *testing.T) {
	pages, _ := collect(&Stride{PC: 1, Base: 100, StridePages: -3, Count: 3, RefsPerStop: 1}, 1)
	want := []uint64{100, 97, 94}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("pages = %v, want %v", pages, want)
		}
	}
}

func TestFreshScanNeverRepeats(t *testing.T) {
	f := &FreshScan{PC: 1, StartPage: 1000, PagesPerRun: 5, RefsPerPage: 1}
	var all []uint64
	r := xrand.New(1)
	for run := 0; run < 4; run++ {
		f.Run(func(pc, vaddr uint64) bool {
			all = append(all, vaddr/PageBytes)
			return true
		}, r)
	}
	if len(all) != 20 {
		t.Fatalf("refs = %d", len(all))
	}
	if len(distinct(all)) != 20 {
		t.Fatalf("fresh scan repeated a page: %v", all)
	}
	// Pages advance monotonically.
	for i := 1; i < len(all); i++ {
		if all[i] != all[i-1]+1 {
			t.Fatalf("not sequential at %d: %v", i, all)
		}
	}
}

func TestFreshScanStride(t *testing.T) {
	f := &FreshScan{PC: 1, StartPage: 1000, PagesPerRun: 3, RefsPerPage: 1, StridePages: 4}
	pages, _ := collect(f, 1)
	want := []uint64{1000, 1004, 1008}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("pages = %v, want %v", pages, want)
		}
	}
}

func TestTileOrderPatterns(t *testing.T) {
	if got := tileOrder(4, 0); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Fatalf("forward = %v", got)
	}
	if got := tileOrder(4, 1); !equalInts(got, []int{3, 2, 1, 0}) {
		t.Fatalf("backward = %v", got)
	}
	if got := tileOrder(5, 2); !equalInts(got, []int{0, 2, 4, 1, 3}) {
		t.Fatalf("red-black = %v", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTilesCoverAllPagesEveryPass(t *testing.T) {
	ti := &Tiles{PCBase: 100, Bases: []uint64{1000, 5000}, PagesPerArray: 10, TilePages: 4, ElemsPerPage: 1}
	r := xrand.New(1)
	for pass := 0; pass < 3; pass++ {
		var pages []uint64
		ti.Run(func(pc, vaddr uint64) bool {
			pages = append(pages, vaddr/PageBytes)
			return true
		}, r)
		if len(pages) != 20 {
			t.Fatalf("pass %d: %d refs, want 20", pass, len(pages))
		}
		if len(distinct(pages)) != 20 {
			t.Fatalf("pass %d: pages revisited within pass", pass)
		}
	}
}

func TestTilesOrderRotates(t *testing.T) {
	mk := func() *Tiles {
		return &Tiles{PCBase: 0, Bases: []uint64{1000}, PagesPerArray: 8, TilePages: 2, ElemsPerPage: 1}
	}
	ti := mk()
	r := xrand.New(1)
	first, _ := collect(ti, 1)
	var second []uint64
	ti.Run(func(pc, vaddr uint64) bool {
		second = append(second, vaddr/PageBytes)
		return true
	}, r)
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("tile order did not rotate between passes")
	}
}

func TestBlockMotifFreshAdvances(t *testing.T) {
	b := &BlockMotif{PC: 1, Start: 1000, Motif: []int64{0, 2, 1}, BlockPages: 4, Blocks: 2, RefsPerStop: 1, Fresh: true}
	r := xrand.New(1)
	var run1, run2 []uint64
	b.Run(func(pc, vaddr uint64) bool { run1 = append(run1, vaddr/PageBytes); return true }, r)
	b.Run(func(pc, vaddr uint64) bool { run2 = append(run2, vaddr/PageBytes); return true }, r)
	want1 := []uint64{1000, 1002, 1001, 1004, 1006, 1005}
	for i := range want1 {
		if run1[i] != want1[i] {
			t.Fatalf("run1 = %v, want %v", run1, want1)
		}
	}
	// Fresh: the second run starts where the first ended.
	if run2[0] != 1008 {
		t.Fatalf("run2 starts at %d, want 1008", run2[0])
	}
}

func TestBlockMotifNonFreshRepeats(t *testing.T) {
	b := &BlockMotif{PC: 1, Start: 1000, Motif: []int64{0, 1}, BlockPages: 2, Blocks: 2, RefsPerStop: 1}
	r := xrand.New(1)
	var run1, run2 []uint64
	b.Run(func(pc, vaddr uint64) bool { run1 = append(run1, vaddr/PageBytes); return true }, r)
	b.Run(func(pc, vaddr uint64) bool { run2 = append(run2, vaddr/PageBytes); return true }, r)
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatalf("non-fresh motif did not repeat: %v vs %v", run1, run2)
		}
	}
}

func TestBlockMotifNoiseBounded(t *testing.T) {
	b := &BlockMotif{PC: 1, Start: 1000, Motif: []int64{0, 1}, BlockPages: 2, Blocks: 50,
		RefsPerStop: 1, NoiseProb: 1.0, NoiseSpread: 7, Fresh: true}
	pages, _ := collect(b, 42)
	base := uint64(1000)
	i := 0
	for blk := 0; blk < 50; blk++ {
		for range 2 {
			p := pages[i]
			if p < base || p > base+7 {
				t.Fatalf("noise page %d outside [%d, %d]", p, base, base+7)
			}
			i++
		}
		base += 2
	}
}

func TestPointerChaseStableAcrossRuns(t *testing.T) {
	pc := &PointerChase{PC: 1, Base: 100, Pages: 16, RefsPerHop: 1}
	r := xrand.New(7)
	var run1, run2 []uint64
	pc.Run(func(_, vaddr uint64) bool { run1 = append(run1, vaddr/PageBytes); return true }, r)
	pc.Run(func(_, vaddr uint64) bool { run2 = append(run2, vaddr/PageBytes); return true }, r)
	if len(run1) != 16 || len(distinct(run1)) != 16 {
		t.Fatalf("run1 = %v", run1)
	}
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatal("chase order changed between runs — history mechanisms need it stable")
		}
	}
}

func TestPointerChaseBlockLocal(t *testing.T) {
	pc := &PointerChase{PC: 1, Base: 0, Pages: 32, RefsPerHop: 1, LocalityPages: 8}
	pages, _ := collect(pc, 9)
	// Each group of 8 hops stays within its 8-page block.
	for i, p := range pages {
		block := uint64(i / 8 * 8)
		if p < block || p >= block+8 {
			t.Fatalf("hop %d page %d escapes block [%d,%d)", i, p, block, block+8)
		}
	}
}

func TestAlternatingMatchesPaperExample(t *testing.T) {
	// N=4 reproduces the paper's example string: S1 = 1,2,3,4 and
	// S2 = 1,5,2,6,3,7,4,8 (base 1).
	a := &Alternating{PC: 1, Base: 1, N: 4, RefsPerStop: 1}
	r := xrand.New(1)
	var s1, s2 []uint64
	a.Run(func(_, vaddr uint64) bool { s1 = append(s1, vaddr/PageBytes); return true }, r)
	a.Run(func(_, vaddr uint64) bool { s2 = append(s2, vaddr/PageBytes); return true }, r)
	want1 := []uint64{1, 2, 3, 4}
	want2 := []uint64{1, 5, 2, 6, 3, 7, 4, 8}
	for i := range want1 {
		if s1[i] != want1[i] {
			t.Fatalf("S1 = %v, want %v", s1, want1)
		}
	}
	for i := range want2 {
		if s2[i] != want2[i] {
			t.Fatalf("S2 = %v, want %v", s2, want2)
		}
	}
}

func TestHotSetBoundsAndSkew(t *testing.T) {
	h := &HotSet{PC: 1, Base: 100, Pages: 16, Refs: 4000, Theta: 0.8}
	pages, _ := collect(h, 3)
	if len(pages) != 4000 {
		t.Fatalf("refs = %d", len(pages))
	}
	counts := map[uint64]int{}
	for _, p := range pages {
		if p < 100 || p >= 116 {
			t.Fatalf("page %d out of range", p)
		}
		counts[p]++
	}
	// Zipf: the hottest page must dominate the coldest noticeably.
	if counts[100] < counts[115]*2 {
		t.Fatalf("no skew: first=%d last=%d", counts[100], counts[115])
	}
}

func TestRandomWalkBounds(t *testing.T) {
	w := &RandomWalk{PC: 1, Base: 50, Pages: 10, Hops: 500, RefsPerStop: 2}
	pages, _ := collect(w, 11)
	if len(pages) != 1000 {
		t.Fatalf("refs = %d", len(pages))
	}
	for _, p := range pages {
		if p < 50 || p >= 60 {
			t.Fatalf("page %d out of range", p)
		}
	}
}

func TestPhaseFunc(t *testing.T) {
	calls := 0
	p := PhaseFunc(func(emit EmitFunc, _ *xrand.Rand) bool {
		calls++
		return emit(1, 4096)
	})
	pages, _ := collect(p, 1)
	if calls != 1 || len(pages) != 1 || pages[0] != 1 {
		t.Fatalf("calls=%d pages=%v", calls, pages)
	}
}

func TestPhasesStopWhenEmitRefuses(t *testing.T) {
	phases := []Phase{
		&Seq{PC: 1, Base: 0, Pages: 100, RefsPerPage: 3},
		&Stride{PC: 1, Base: 0, StridePages: 1, Count: 100, RefsPerStop: 3},
		&FreshScan{PC: 1, StartPage: 0, PagesPerRun: 100, RefsPerPage: 3},
		&Tiles{PCBase: 1, Bases: []uint64{0}, PagesPerArray: 100, TilePages: 5, ElemsPerPage: 2},
		&BlockMotif{PC: 1, Start: 0, Motif: []int64{0, 1}, BlockPages: 2, Blocks: 100, RefsPerStop: 3},
		&PointerChase{PC: 1, Base: 0, Pages: 100, RefsPerHop: 3},
		&Alternating{PC: 1, Base: 0, N: 100, RefsPerStop: 3},
		&HotSet{PC: 1, Base: 0, Pages: 10, Refs: 100},
		&RandomWalk{PC: 1, Base: 0, Pages: 10, Hops: 100, RefsPerStop: 3},
	}
	for _, p := range phases {
		n := 0
		r := xrand.New(1)
		ok := p.Run(func(pc, vaddr uint64) bool {
			n++
			return n < 5
		}, r)
		if ok {
			t.Errorf("%T: Run returned true after emit refused", p)
		}
		if n != 5 {
			t.Errorf("%T: emitted %d refs after refusal, want exactly 5", p, n)
		}
	}
}
