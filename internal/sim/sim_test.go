package sim

import (
	"testing"
	"testing/quick"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
)

func cfgSmall() Config {
	return Config{TLB: tlb.Config{Entries: 4}, BufferEntries: 2, PageShift: 12}
}

// pageRefs converts page numbers to references (pc=0, addresses at page
// granularity for PageShift 12).
func pageRefs(pages ...uint64) []trace.Ref {
	refs := make([]trace.Ref, len(pages))
	for i, p := range pages {
		refs[i] = trace.Ref{VAddr: p << 12}
	}
	return refs
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{TLB: tlb.Config{Entries: 0}, BufferEntries: 16, PageShift: 12},
		{TLB: tlb.Config{Entries: 128}, BufferEntries: 0, PageShift: 12},
		{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 0},
		{TLB: tlb.Config{Entries: 128}, BufferEntries: 16, PageShift: 31},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("accepted invalid %+v", c)
		}
	}
}

func TestBaselineCounting(t *testing.T) {
	s := New(cfgSmall(), nil)
	// 4 distinct pages, then re-touch them (all hits), then a 5th page.
	if err := s.RunBatch(trace.NewSliceReader(pageRefs(1, 2, 3, 4, 1, 2, 3, 4, 5))); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Refs != 9 || st.Misses != 5 || st.BufferHits != 0 || st.DemandFetches != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Accuracy() != 0 {
		t.Fatal("baseline accuracy must be 0")
	}
	if got := st.MissRate(); got != 5.0/9.0 {
		t.Fatalf("miss rate = %v", got)
	}
}

func TestSequentialPrefetchPipeline(t *testing.T) {
	// SP on a pure sequential scan: every miss after the first hits the
	// prefetch buffer.
	s := New(cfgSmall(), prefetch.NewSequential(true))
	var pages []uint64
	for p := uint64(100); p < 120; p++ {
		pages = append(pages, p)
	}
	if err := s.RunBatch(trace.NewSliceReader(pageRefs(pages...))); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Misses != 20 {
		t.Fatalf("misses = %d, want 20 (cold scan)", st.Misses)
	}
	if st.BufferHits != 19 {
		t.Fatalf("buffer hits = %d, want 19", st.BufferHits)
	}
	if got := st.Accuracy(); got != 19.0/20.0 {
		t.Fatalf("accuracy = %v", got)
	}
}

func TestDistancePipelinePaperExample(t *testing.T) {
	// Pages 1,2,4,5,7,8 with a TLB big enough that every reference misses:
	// DP prefetches pages 7 and 8 ahead of use -> accuracy 2/6.
	s := New(Config{TLB: tlb.Config{Entries: 64}, BufferEntries: 16, PageShift: 12},
		core.NewDistance(256, 1, 2))
	if err := s.RunBatch(trace.NewSliceReader(pageRefs(1, 2, 4, 5, 7, 8))); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Misses != 6 {
		t.Fatalf("misses = %d, want 6", st.Misses)
	}
	if st.BufferHits != 2 {
		t.Fatalf("buffer hits = %d, want 2 (pages 7 and 8)", st.BufferHits)
	}
}

func TestPrefetchDuplicatesDropped(t *testing.T) {
	// SP prefetches vpn+1; if that page is already TLB-resident the request
	// must be dropped and counted.
	s := New(cfgSmall(), prefetch.NewSequential(true))
	// Page 6 enters the TLB first; then a miss on 5 requests 6 (duplicate).
	if err := s.RunBatch(trace.NewSliceReader(pageRefs(6, 5))); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PrefetchDuplicates == 0 {
		t.Fatalf("duplicate prefetch not counted: %+v", st)
	}
	// 6 must not be in the buffer.
	if s.Buffer().Contains(6) {
		t.Fatal("TLB-resident page was prefetched into the buffer")
	}
}

func TestBufferHitMigratesToTLB(t *testing.T) {
	s := New(cfgSmall(), prefetch.NewSequential(true))
	s.Ref(0, 10<<12) // miss, prefetches 11
	if !s.Buffer().Contains(11) {
		t.Fatal("prefetch missing from buffer")
	}
	s.Ref(0, 11<<12) // miss, buffer hit, migrate
	if s.Buffer().Contains(11) {
		t.Fatal("entry not removed from buffer on hit")
	}
	if !s.TLB().Contains(11) {
		t.Fatal("entry not migrated into TLB")
	}
	st := s.Stats()
	if st.BufferHits != 1 {
		t.Fatalf("buffer hits = %d", st.BufferHits)
	}
}

func TestStateMemOpsSurface(t *testing.T) {
	// RP's pointer manipulations must be visible in the stats.
	s := New(Config{TLB: tlb.Config{Entries: 2}, BufferEntries: 4, PageShift: 12},
		prefetch.NewRecency())
	if err := s.RunBatch(trace.NewSliceReader(pageRefs(1, 2, 3, 4, 1, 2, 3, 4))); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.StateMemOps == 0 {
		t.Fatalf("RP reported no pointer traffic: %+v", st)
	}
}

// recorder wraps a mechanism and records the miss stream it observes.
type recorder struct {
	inner  prefetch.Prefetcher
	misses []uint64
}

func (r *recorder) Name() string { return r.inner.Name() }
func (r *recorder) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	r.misses = append(r.misses, ev.VPN)
	return r.inner.OnMiss(ev, dst)
}
func (r *recorder) Reset() { r.inner.Reset() }

// Property (paper §2): "Prefetching can thus not increase the miss rates of
// the original TLB" — in fact the miss *stream* is identical with and
// without prefetching, because fills enter the TLB at the same points either
// way. Verified for every mechanism against the no-prefetch baseline.
func TestQuickMissStreamInvariance(t *testing.T) {
	mechanisms := map[string]func() prefetch.Prefetcher{
		"SP":  func() prefetch.Prefetcher { return prefetch.NewSequential(true) },
		"ASP": func() prefetch.Prefetcher { return prefetch.NewASP(64, 1) },
		"MP":  func() prefetch.Prefetcher { return prefetch.NewMarkov(64, 1, 2) },
		"RP":  func() prefetch.Prefetcher { return prefetch.NewRecency() },
		"DP":  func() prefetch.Prefetcher { return core.NewDistance(64, 1, 2) },
	}
	for name, mk := range mechanisms {
		mk := mk
		f := func(raw []uint16, pcsRaw []uint8) bool {
			base := &recorder{inner: prefetch.Nop{}}
			mech := &recorder{inner: mk()}
			s1 := New(cfgSmall(), base)
			s2 := New(cfgSmall(), mech)
			for i, r := range raw {
				pc := uint64(0)
				if len(pcsRaw) > 0 {
					pc = uint64(pcsRaw[i%len(pcsRaw)])
				}
				va := uint64(r%256) << 12
				s1.Ref(pc, va)
				s2.Ref(pc, va)
			}
			if len(base.misses) != len(mech.misses) {
				return false
			}
			for i := range base.misses {
				if base.misses[i] != mech.misses[i] {
					return false
				}
			}
			return s1.Stats().Misses == s2.Stats().Misses
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: accuracy is always in [0,1] and BufferHits+DemandFetches==Misses.
func TestQuickStatsConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(cfgSmall(), core.NewDistance(64, 1, 2))
		for _, r := range raw {
			s.Ref(0, uint64(r%512)<<12)
		}
		st := s.Stats()
		if st.BufferHits+st.DemandFetches != st.Misses {
			return false
		}
		a := st.Accuracy()
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupFanout(t *testing.T) {
	s1 := New(cfgSmall(), prefetch.NewSequential(true))
	s2 := New(cfgSmall(), core.NewDistance(64, 1, 2))
	g := NewGroup(s1)
	g.Add(s2)
	g.RefBatch(pageRefs(1, 2, 3))
	g.RefBatch(pageRefs(4, 5))
	if len(g.Members()) != 2 {
		t.Fatal("member count")
	}
	// Both saw all references and the identical miss stream.
	st1, st2 := s1.Stats(), s2.Stats()
	if st1.Refs != 5 || st2.Refs != 5 {
		t.Fatalf("refs = %d, %d", st1.Refs, st2.Refs)
	}
	if st1.Misses != st2.Misses {
		t.Fatalf("miss streams diverged: %d vs %d", st1.Misses, st2.Misses)
	}
}

func TestPageShiftGranularity(t *testing.T) {
	// Two addresses within one 4K page are one page; with 8K pages, two
	// neighbouring 4K pages fold into one.
	s4k := New(Config{TLB: tlb.Config{Entries: 4}, BufferEntries: 2, PageShift: 12}, nil)
	s4k.Ref(0, 0x1000)
	s4k.Ref(0, 0x1fff) // same page -> hit
	s4k.Ref(0, 0x2000) // next page -> miss
	if st := s4k.Stats(); st.Misses != 2 {
		t.Fatalf("4K misses = %d, want 2", st.Misses)
	}
	s8k := New(Config{TLB: tlb.Config{Entries: 4}, BufferEntries: 2, PageShift: 13}, nil)
	s8k.Ref(0, 0x2000)
	s8k.Ref(0, 0x3fff) // same 8K page (0x2000..0x3fff) -> hit
	if st := s8k.Stats(); st.Misses != 1 {
		t.Fatalf("8K misses = %d, want 1", st.Misses)
	}
}

func TestBlockGranularity(t *testing.T) {
	// PageShift 6 runs the pipeline as a data cache of 64-byte blocks.
	blk := New(Config{TLB: tlb.Config{Entries: 16, Ways: 4}, BufferEntries: 8, PageShift: 6}, nil)
	blk.Ref(0, 0x1000) // block 0x40
	blk.Ref(0, 0x103f) // same 64-byte block -> hit
	blk.Ref(0, 0x1040) // next block -> miss
	st := blk.Stats()
	if st.Refs != 3 || st.Misses != 2 {
		t.Fatalf("64B-block stats = %+v, want 3 refs, 2 misses", st)
	}
	if st.MissRate() <= 0.5 || st.MissRate() >= 0.7 {
		t.Fatalf("miss rate = %v", st.MissRate())
	}
}
