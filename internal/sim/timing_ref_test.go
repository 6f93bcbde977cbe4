package sim_test

import (
	"fmt"
	"testing"

	"tlbprefetch/internal/memsys"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// refTiming is the reference cycle model the folded TimingSimulator is
// checked against: a self-contained copy of the pipeline that ticks its
// clock on every reference and owns its own TLB, buffer and channel. It
// shares no code with sim.Simulator's miss path, so the differential test
// below pins the deferred clock, the shared miss path and the cycle-model
// hook against an independent model.
type refTiming struct {
	cfg  sim.TimingConfig
	tlb  *tlb.TLB
	buf  *tlb.PrefetchBuffer
	pf   prefetch.Prefetcher
	ch   *memsys.Channel
	now  uint64
	stat sim.TimingStats

	refAccum uint64 // references since the last base-cycle charge
	isRP     bool
	issuable []bool   // per-miss scratch, sized to the prefetch batch
	scratch  []uint64 // reusable prediction buffer handed to the mechanism
}

func newRefTiming(cfg sim.TimingConfig, pf prefetch.Prefetcher) *refTiming {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if pf == nil {
		pf = prefetch.Nop{}
	}
	occ := cfg.MemOpOccupancy
	if occ == 0 {
		occ = cfg.MemOpLatency
	}
	return &refTiming{
		cfg:  cfg,
		tlb:  tlb.New(cfg.TLB),
		buf:  tlb.NewPrefetchBuffer(cfg.BufferEntries),
		pf:   pf,
		ch:   memsys.NewPipelinedChannel(cfg.MemOpLatency, occ),
		isRP: pf.Name() == "RP",
	}
}

// Ref simulates one memory reference and advances the clock.
func (s *refTiming) Ref(pc, vaddr uint64) {
	rpc := s.cfg.RefsPerCycle
	if rpc == 0 {
		rpc = 1
	}
	s.refAccum++
	if s.refAccum >= rpc {
		s.now += s.cfg.CyclesPerRef
		s.refAccum = 0
	}
	s.stat.Refs++
	vpn := vaddr >> s.cfg.PageShift
	if s.tlb.Access(vpn) {
		return
	}
	s.stat.Misses++

	readyAt, bufferHit := s.buf.TakeOut(vpn)
	if bufferHit {
		s.stat.BufferHits++
		// A hit stalls for whichever is longer: the in-flight wait until
		// the prefetch actually arrives ("it is made to stall until the
		// entry arrives"), or the residual fill/restart cost — the two
		// overlap in the pipeline, so the hit pays their maximum.
		stall := s.cfg.BufferHitPenalty
		if readyAt > s.now && readyAt-s.now > stall {
			stall = readyAt - s.now
			s.stat.InFlightHits++
		}
		s.stat.StallCycles += stall
		s.now += stall
	} else {
		s.stat.DemandFetches++
		s.stat.StallCycles += s.cfg.MissPenalty
		s.now += s.cfg.MissPenalty
	}

	evicted, hasEvicted := s.tlb.Insert(vpn)
	act := s.pf.OnMiss(prefetch.Event{
		VPN:        vpn,
		PC:         pc,
		BufferHit:  bufferHit,
		EvictedVPN: evicted,
		HasEvicted: hasEvicted,
	}, s.scratch[:0])
	if cap(act.Prefetches) > cap(s.scratch) {
		s.scratch = act.Prefetches
	}

	// RP's skip rule: when earlier prefetch traffic is still in flight,
	// update the stack but do not fetch the neighbours ("there would be
	// only 4 memory transactions instead of 6").
	prefetches := act.Prefetches
	if s.isRP && s.cfg.RPSkipWhenBusy && len(prefetches) > 0 && s.ch.Busy(s.now) {
		prefetches = nil
		s.stat.SkippedPref++
	}

	// Metadata operations occupy the channel first (RP updates the stack
	// before prefetching), then the prefetch fetches complete one by one.
	// Issuability is decided once, up front: an insertion below may evict
	// a buffer entry that a later prefetch in this batch duplicates, and
	// that later prefetch must still be treated as the duplicate it was at
	// issue time.
	s.stat.StateMemOps += uint64(act.StateMemOps)
	if cap(s.issuable) < len(prefetches) {
		s.issuable = make([]bool, len(prefetches))
	}
	issuable := s.issuable[:len(prefetches)]
	for i := range issuable {
		issuable[i] = false
	}
	n := 0
	for i, p := range prefetches {
		if !s.tlb.Contains(p) && !s.buf.Contains(p) {
			issuable[i] = true
			n++
		}
	}
	after := s.ch.Issue(s.now, act.StateMemOps)
	completions := s.ch.IssueEach(nil, after, n)

	ci := 0
	for i, p := range prefetches {
		s.stat.PrefetchesRequested++
		if !issuable[i] {
			s.stat.PrefetchDuplicates++
			continue
		}
		s.buf.Insert(p, completions[ci])
		ci++
		s.stat.PrefetchesIssued++
	}
}

// Stats returns a snapshot including the cycle counters.
func (s *refTiming) Stats() sim.TimingStats {
	st := s.stat
	st.Cycles = s.now
	st.PrefetchesUnused = s.buf.UnusedInEpoch()
	return st
}

// timingCases are the cycle-model configurations of the differential test:
// the paper's constants, both ends of the latency axis, and a corner with
// the RP skip rule off, three references per cycle and a small
// set-associative TLB.
func timingCases() map[string]sim.TimingConfig {
	corner := sim.DefaultTiming()
	corner.RPSkipWhenBusy = false
	corner.RefsPerCycle = 3
	corner.TLB = tlb.Config{Entries: 16, Ways: 4}
	return map[string]sim.TimingConfig{
		"default":   sim.DefaultTiming(),
		"scaled20":  sim.ScaledTiming(20),
		"scaled400": sim.ScaledTiming(400),
		"corner":    corner,
	}
}

func mechFor(kind string) sweep.Mech {
	return sweep.Mech{Kind: kind, Rows: 256, Ways: 1, Slots: 2}
}

func workloadRefs(t *testing.T, name string, n uint64) []trace.Ref {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	refs := make([]trace.Ref, 0, n)
	workload.Generate(w, n, func(pc, vaddr uint64) bool {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	return refs
}

// chunks splits refs at uneven boundaries so batches end mid-stream, on
// hits and on misses alike.
func chunks(refs []trace.Ref) [][]trace.Ref {
	var out [][]trace.Ref
	for i, size := 0, 1; i < len(refs); size = size*7%4093 + 1 {
		end := min(i+size, len(refs))
		out = append(out, refs[i:end])
		i = end
	}
	return out
}

// TestTimingDifferential checks the timing simulator against the reference
// cycle model for every registry kind under every timing case, driven three
// ways: per-reference Ref, chunked RefBatch, and as a member of a
// shared-frontend Group. Snapshots are compared at every chunk boundary,
// so the clock's deferred base-cycle charge is read between misses too.
func TestTimingDifferential(t *testing.T) {
	streams := map[string][]trace.Ref{
		"mcf":   workloadRefs(t, "mcf", 60_000),
		"twolf": workloadRefs(t, "twolf", 60_000),
	}
	for wname, refs := range streams {
		parts := chunks(refs)
		for cname, cfg := range timingCases() {
			t.Run(fmt.Sprintf("%s/%s", wname, cname), func(t *testing.T) {
				kinds := sweep.Kinds()
				ref := make([]*refTiming, len(kinds))
				perRef := make([]*sim.TimingSimulator, len(kinds))
				batched := make([]*sim.TimingSimulator, len(kinds))
				grouped := make([]*sim.TimingSimulator, len(kinds))
				g := sim.NewGroup()
				for i, k := range kinds {
					m := mechFor(k)
					ref[i] = newRefTiming(cfg, m.Build())
					perRef[i] = sim.NewTiming(cfg, m.Build())
					batched[i] = sim.NewTiming(cfg, m.Build())
					grouped[i] = sim.NewTiming(cfg, m.Build())
					g.Add(grouped[i].Simulator)
				}
				if !g.SharedFrontend() {
					t.Fatal("timed members of one geometry must share the Group frontend")
				}
				for ci, part := range parts {
					g.RefBatch(part)
					for i := range kinds {
						for _, r := range part {
							ref[i].Ref(r.PC, r.VAddr)
							perRef[i].Ref(r.PC, r.VAddr)
						}
						batched[i].RefBatch(part)
						want := ref[i].Stats()
						for mode, s := range map[string]*sim.TimingSimulator{
							"Ref": perRef[i], "RefBatch": batched[i], "Group": grouped[i],
						} {
							if got := s.Stats(); got != want {
								t.Fatalf("%s via %s, chunk %d:\n got %+v\nwant %+v", kinds[i], mode, ci, got, want)
							}
							if s.Now() != ref[i].now {
								t.Fatalf("%s via %s, chunk %d: Now %d, want %d", kinds[i], mode, ci, s.Now(), ref[i].now)
							}
						}
					}
				}
			})
		}
	}
}

// TestTimingResetStatsKeepsClock pins ResetStats on a timing simulator: the
// clock keeps running (Now matches a run that never reset), and the window
// counters — cycles included — equal the difference of two reference
// snapshots. Reading the clock immediately after the reset must not see
// the cleared reference count as a wrap-around.
func TestTimingResetStatsKeepsClock(t *testing.T) {
	refs := workloadRefs(t, "mcf", 40_000)
	const warm = 15_001
	for _, kind := range []string{"none", "RP", "DP"} {
		cfg := sim.DefaultTiming()
		cfg.RefsPerCycle = 3
		ref := newRefTiming(cfg, mechFor(kind).Build())
		s := sim.NewTiming(cfg, mechFor(kind).Build())
		for _, r := range refs[:warm] {
			ref.Ref(r.PC, r.VAddr)
		}
		s.RefBatch(refs[:warm])
		atWarm := ref.Stats()
		s.ResetStats()
		if got := s.Stats(); got.Cycles != 0 || got.Refs != 0 || s.Now() != atWarm.Cycles {
			t.Fatalf("%s: just after ResetStats: %+v, Now %d (want cycle %d)", kind, got, s.Now(), atWarm.Cycles)
		}
		for _, r := range refs[warm:] {
			ref.Ref(r.PC, r.VAddr)
		}
		if err := s.RunBatch(trace.AsBatch(trace.NewSliceReader(refs[warm:]))); err != nil {
			t.Fatal(err)
		}
		end, got := ref.Stats(), s.Stats()
		if s.Now() != end.Cycles {
			t.Fatalf("%s: Now %d after ResetStats, want %d", kind, s.Now(), end.Cycles)
		}
		want := sim.TimingStats{
			Cycles:       end.Cycles - atWarm.Cycles,
			StallCycles:  end.StallCycles - atWarm.StallCycles,
			InFlightHits: end.InFlightHits - atWarm.InFlightHits,
			SkippedPref:  end.SkippedPref - atWarm.SkippedPref,
		}
		want.Refs = end.Refs - atWarm.Refs
		want.Misses = end.Misses - atWarm.Misses
		want.BufferHits = end.BufferHits - atWarm.BufferHits
		want.DemandFetches = end.DemandFetches - atWarm.DemandFetches
		want.PrefetchesRequested = end.PrefetchesRequested - atWarm.PrefetchesRequested
		want.PrefetchesIssued = end.PrefetchesIssued - atWarm.PrefetchesIssued
		want.PrefetchDuplicates = end.PrefetchDuplicates - atWarm.PrefetchDuplicates
		want.StateMemOps = end.StateMemOps - atWarm.StateMemOps
		// The unused count is epoch-based (BeginEpoch), not a difference.
		want.PrefetchesUnused = got.PrefetchesUnused
		if got != want {
			t.Fatalf("%s: window\n got %+v\nwant %+v", kind, got, want)
		}
	}
}
