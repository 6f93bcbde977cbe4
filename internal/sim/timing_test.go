package sim

import (
	"testing"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
)

func timingCfg() TimingConfig {
	return TimingConfig{
		Config: Config{TLB: tlb.Config{Entries: 4}, BufferEntries: 4, PageShift: 12},
		Timing: Timing{
			MissPenalty:    100,
			MemOpLatency:   50,
			CyclesPerRef:   1,
			RPSkipWhenBusy: true,
		},
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DefaultTiming().Validate(); err != nil {
		t.Fatal(err)
	}
	c := timingCfg()
	c.MissPenalty = 0
	if err := c.Validate(); err == nil {
		t.Fatal("accepted zero miss penalty")
	}
}

func TestTimingBaselineCycles(t *testing.T) {
	// No prefetching: every distinct page costs 1 (ref) + 100 (penalty);
	// hits cost 1.
	s := NewTiming(timingCfg(), nil)
	s.RunBatch(trace.NewSliceReader(pageRefs(1, 2, 3, 1, 2, 3)))
	st := s.Stats()
	// 6 refs, 3 misses: 6*1 + 3*100.
	if st.Cycles != 306 {
		t.Fatalf("cycles = %d, want 306", st.Cycles)
	}
	if st.StallCycles != 300 {
		t.Fatalf("stalls = %d, want 300", st.StallCycles)
	}
}

func TestTimingArrivedPrefetchIsFree(t *testing.T) {
	// SP prefetches page+1 (completes 50 cycles later). If the next page is
	// referenced after the prefetch lands, the miss costs no stall.
	s := NewTiming(timingCfg(), prefetch.NewSequential(true))
	s.Ref(0, 10<<12) // t=1; demand miss -> t=101; prefetch 11 completes at 151
	// Burn 60 cycles of hits on page 10.
	for i := 0; i < 60; i++ {
		s.Ref(0, 10<<12)
	}
	// t=161 now; the prefetch (ready at 151) has landed.
	before := s.Stats().StallCycles
	s.Ref(0, 11<<12)
	after := s.Stats()
	if after.StallCycles != before {
		t.Fatalf("arrived prefetch still stalled: %d -> %d", before, after.StallCycles)
	}
	if after.BufferHits != 1 || after.InFlightHits != 0 {
		t.Fatalf("stats = %+v", after)
	}
}

func TestTimingInFlightPrefetchStalls(t *testing.T) {
	// Reference the prefetched page immediately: the prefetch is still in
	// flight, so the CPU stalls until it arrives (less than a full demand
	// penalty would cost in this configuration if the wait is shorter).
	s := NewTiming(timingCfg(), prefetch.NewSequential(true))
	s.Ref(0, 10<<12) // t=1 ref; demand: t=101; prefetch 11 ready at 151
	s.Ref(0, 11<<12) // t=102; in-flight: stall to 151
	st := s.Stats()
	if st.InFlightHits != 1 {
		t.Fatalf("in-flight hits = %d, want 1", st.InFlightHits)
	}
	// Stalls: 100 (demand) + 49 (wait from 102 to 151).
	if st.StallCycles != 149 {
		t.Fatalf("stalls = %d, want 149", st.StallCycles)
	}
}

func TestTimingRPChargesPointerOps(t *testing.T) {
	s := NewTiming(timingCfg(), prefetch.NewRecency())
	// Cycle 5 pages through a 4-entry TLB to force evictions and stack
	// maintenance.
	var refs []trace.Ref
	for round := 0; round < 3; round++ {
		for p := uint64(1); p <= 5; p++ {
			refs = append(refs, trace.Ref{VAddr: p << 12})
		}
	}
	s.RunBatch(trace.NewSliceReader(refs))
	st := s.Stats()
	if st.StateMemOps == 0 {
		t.Fatal("RP pointer traffic not charged")
	}
	baseline := NewTiming(timingCfg(), nil)
	baseline.RunBatch(trace.NewSliceReader(refs))
	// RP must not be cheaper than baseline here: its prefetches all go to
	// pages about to be referenced anyway, but pointer ops occupy the
	// channel; with this adversarial cyclic pattern accuracy is low.
	if st.Misses != baseline.Stats().Misses {
		t.Fatalf("miss invariance broken: %d vs %d", st.Misses, baseline.Stats().Misses)
	}
}

func TestTimingRPSkipRule(t *testing.T) {
	// Two misses in quick succession: the second finds the channel busy
	// with the first's traffic, so RP skips its neighbour fetches.
	cfg := timingCfg()
	s := NewTiming(cfg, prefetch.NewRecency())
	// Alternate two different visit orders over 8 pages (TLB holds 4), so
	// RP's neighbour predictions are mostly wrong: demand misses (100
	// cycles apart) then arrive while the channel still holds the previous
	// miss's 4 pointer ops + fetches (200+ cycles).
	orders := [2][]uint64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 3, 6, 1, 4, 7, 2, 5},
	}
	var refs []trace.Ref
	for round := 0; round < 6; round++ {
		for _, p := range orders[round%2] {
			refs = append(refs, trace.Ref{VAddr: p << 12})
		}
	}
	s.RunBatch(trace.NewSliceReader(refs))
	if st := s.Stats(); st.SkippedPref == 0 {
		t.Fatalf("back-to-back misses never tripped the skip rule: %+v", st)
	}

	// With the rule disabled the skips disappear.
	cfg.RPSkipWhenBusy = false
	s2 := NewTiming(cfg, prefetch.NewRecency())
	s2.RunBatch(trace.NewSliceReader(refs))
	if st := s2.Stats(); st.SkippedPref != 0 {
		t.Fatalf("skip rule fired while disabled: %+v", st)
	}
}

func TestTimingDPNoStateTraffic(t *testing.T) {
	s := NewTiming(timingCfg(), core.NewDistance(256, 1, 2))
	var refs []trace.Ref
	for p := uint64(0); p < 100; p++ {
		refs = append(refs, trace.Ref{VAddr: p << 12})
	}
	s.RunBatch(trace.NewSliceReader(refs))
	st := s.Stats()
	if st.StateMemOps != 0 {
		t.Fatalf("DP incurred state traffic: %d", st.StateMemOps)
	}
	if st.PrefetchesIssued == 0 {
		t.Fatal("DP never prefetched on a sequential scan")
	}
}

func TestTimingCPI(t *testing.T) {
	s := NewTiming(timingCfg(), nil)
	s.RunBatch(trace.NewSliceReader(pageRefs(1, 1, 1, 1)))
	st := s.Stats()
	// 4 refs, 1 miss: cycles = 4 + 100 = 104; CPI = 26.
	if got := st.CPI(); got != 26 {
		t.Fatalf("CPI = %v, want 26", got)
	}
	var empty TimingStats
	if empty.CPI() != 0 {
		t.Fatal("CPI of empty stats must be 0")
	}
}

func TestTimingFunctionalAgreement(t *testing.T) {
	// Refs and misses never depend on the cycle model: TLB contents are
	// fixed at miss time. Buffer hits can differ, through the RP skip rule
	// and through the duplicate rule (TestDuplicateRuleDiffers), but not on
	// this small stream, whose DP batches never meet a full buffer.
	var refs []trace.Ref
	for i := 0; i < 500; i++ {
		p := uint64(i*7%97) + uint64(i%3)
		refs = append(refs, trace.Ref{VAddr: p << 12})
	}
	f := New(cfgSmall(), core.NewDistance(64, 1, 2))
	f.RunBatch(trace.NewSliceReader(refs))
	tm := NewTiming(TimingConfig{
		Config: cfgSmall(),
		Timing: Timing{MissPenalty: 100, MemOpLatency: 50, CyclesPerRef: 1},
	}, core.NewDistance(64, 1, 2))
	tm.RunBatch(trace.NewSliceReader(refs))
	fs, ts := f.Stats(), tm.Stats()
	if fs.Refs != ts.Refs || fs.Misses != ts.Misses || fs.BufferHits != ts.BufferHits {
		t.Fatalf("functional %+v vs timing %+v", fs, ts.Stats)
	}
}

func TestTimingReset(t *testing.T) {
	s := NewTiming(timingCfg(), core.NewDistance(64, 1, 2))
	s.RunBatch(trace.NewSliceReader(pageRefs(1, 2, 3, 4, 5)))
	s.Reset()
	st := s.Stats()
	if st.Cycles != 0 || st.Refs != 0 || s.Now() != 0 {
		t.Fatalf("reset left state: %+v", st)
	}
}

// scripted is a mechanism that answers the n-th miss with the n-th batch.
type scripted struct {
	batches [][]uint64
	n       int
}

func (m *scripted) Name() string { return "scripted" }
func (m *scripted) Reset()       { m.n = 0 }
func (m *scripted) OnMiss(_ prefetch.Event, dst []uint64) prefetch.Action {
	if m.n < len(m.batches) {
		dst = append(dst, m.batches[m.n]...)
	}
	m.n++
	return prefetch.Action{Prefetches: dst}
}

// TestDuplicateRuleDiffers pins the one place the functional and timing
// models differ. With the buffer full of [100 (oldest), 101], a batch of
// [102, 100] first inserts 102, evicting 100. The functional model checks
// 100 at its insertion, finds it gone and fetches it again; the timing
// model decided issuability before any insert, when 100 was resident, and
// counts it as a duplicate.
func TestDuplicateRuleDiffers(t *testing.T) {
	batches := [][]uint64{{100, 101}, {102, 100}}
	refs := pageRefs(1, 2)

	f := New(cfgSmall(), &scripted{batches: batches})
	f.RunBatch(trace.NewSliceReader(refs))
	fs := f.Stats()
	if fs.PrefetchesRequested != 4 || fs.PrefetchesIssued != 4 || fs.PrefetchDuplicates != 0 {
		t.Fatalf("functional: %+v, want 4 requested, 4 issued, 0 duplicates", fs)
	}
	if b := f.Buffer(); !b.Contains(100) || b.Contains(101) {
		t.Fatal("functional: 100 should have been fetched again over 101")
	}

	tm := NewTiming(TimingConfig{Config: cfgSmall(), Timing: Timing{MissPenalty: 100, MemOpLatency: 50, CyclesPerRef: 1}},
		&scripted{batches: batches})
	tm.RunBatch(trace.NewSliceReader(refs))
	ts := tm.Stats()
	if ts.PrefetchesRequested != 4 || ts.PrefetchesIssued != 3 || ts.PrefetchDuplicates != 1 {
		t.Fatalf("timing: %+v, want 4 requested, 3 issued, 1 duplicate", ts.Stats)
	}
	if b := tm.Buffer(); b.Contains(100) || !b.Contains(101) {
		t.Fatal("timing: 100 should have stayed evicted")
	}
}

// TestTimingRefZeroAlloc pins the timing path as allocation-free once warm:
// the prediction scratch and the channel's completion-cycle scratch are
// owned by the simulator and reused on every miss.
func TestTimingRefZeroAlloc(t *testing.T) {
	refs := batchTestStream(t, "mcf", 20_000)
	for _, pf := range []prefetch.Prefetcher{
		prefetch.NewRecency(), core.NewDistance(256, 1, 2), prefetch.NewSBFP(),
	} {
		s := NewTiming(DefaultTiming(), pf)
		replay := func() {
			for _, r := range refs {
				s.Ref(r.PC, r.VAddr)
			}
		}
		replay() // warm up: grow the scratch buffers, populate the tables
		if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
			t.Errorf("%s: %.1f allocations per replay of a warm timing simulator", pf.Name(), allocs)
		}
	}
}
