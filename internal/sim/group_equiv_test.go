package sim

import (
	"testing"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// equivMechs is the mechanism mix the experiment harness fans out: every
// family, with differing buffer-facing behaviour (multi-prefetch batches,
// PC indexing, in-memory metadata, no-op baseline).
func equivMechs() []prefetch.Prefetcher {
	return []prefetch.Prefetcher{
		nil, // no-prefetch baseline
		prefetch.NewSequential(true),
		prefetch.NewAdaptiveSequential(),
		prefetch.NewASP(64, 1),
		prefetch.NewMarkov(64, 1, 2),
		prefetch.NewRecency(),
		core.NewDistance(64, 1, 2),
		core.NewDistance2(64, 1, 2),
	}
}

// feedChunks delivers refs to g in runner-sized chunks.
func feedChunks(g *Group, refs []trace.Ref) {
	for pos := 0; pos < len(refs); pos += 4096 {
		g.RefBatch(refs[pos:min(pos+4096, len(refs))])
	}
}

// TestGroupSharedFrontendEquivalence is the differential contract of the
// shared frontend: for each workload, a Group whose members share TLB
// geometry (and therefore runs one canonical TLB) must produce member
// Stats byte-identical to running each member as an independent Simulator
// over the same stream.
func TestGroupSharedFrontendEquivalence(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	for _, wname := range []string{"swim", "gzip", "mcf", "gap", "gsm-enc", "ks"} {
		w, ok := workload.ByName(wname)
		if !ok {
			t.Fatalf("workload %s missing", wname)
		}
		// Shared-frontend group run.
		g := NewGroup()
		for _, pf := range equivMechs() {
			g.Add(New(cfg, pf))
		}
		if !g.SharedFrontend() {
			t.Fatalf("%s: homogeneous group did not enable the shared frontend", wname)
		}
		feedChunks(g, batchTestStream(t, wname, 60_000))

		// Independent runs over the identical regenerated stream.
		for i, pf := range equivMechs() {
			ind := New(cfg, pf)
			workload.Generate(w, 60_000, func(pc, vaddr uint64) bool {
				refModel(ind, pc, vaddr)
				return true
			})
			got := g.Members()[i].Stats()
			want := ind.Stats()
			if got != want {
				t.Errorf("%s member %d (%s): shared %+v != independent %+v",
					wname, i, g.Members()[i].Prefetcher().Name(), got, want)
			}
		}
	}
}

// TestGroupSharedFrontendMidRunStatsReset mirrors experiments.RunApp's
// warmup protocol: counters reset mid-run (structures stay warm) must
// leave shared and independent pipelines in agreement.
func TestGroupSharedFrontendMidRunStatsReset(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	w, _ := workload.ByName("swim")
	const warmup, run = 20_000, 40_000

	g := NewGroup()
	for _, pf := range equivMechs() {
		g.Add(New(cfg, pf))
	}
	refs := batchTestStream(t, "swim", warmup+run)
	feedChunks(g, refs[:warmup])
	for _, m := range g.Members() {
		m.ResetStats()
	}
	feedChunks(g, refs[warmup:])

	for i, pf := range equivMechs() {
		ind := New(cfg, pf)
		var n uint64
		workload.Generate(w, warmup+run, func(pc, vaddr uint64) bool {
			refModel(ind, pc, vaddr)
			n++
			if n == warmup {
				ind.ResetStats()
			}
			return true
		})
		if got, want := g.Members()[i].Stats(), ind.Stats(); got != want {
			t.Errorf("member %d: shared %+v != independent %+v", i, got, want)
		}
	}
}

// TestGroupLazyHitCredit pins the shared front's reference count, which
// the frontend stores at each miss and at the end of each chunk and no
// member touches on a hit: a chunk with no miss at all and a chunk that
// ends in a run of hits must leave every member's Refs, and a timed
// member's Now and TimingStats, where per-member RefBatch leaves them at
// each chunk boundary.
func TestGroupLazyHitCredit(t *testing.T) {
	tcfg := DefaultTiming()
	tcfg.TLB = tlb.Config{Entries: 8}
	tcfg.RefsPerCycle = 3
	page := func(p uint64) trace.Ref { return trace.Ref{PC: p % 5, VAddr: p<<12 | 8} }

	var endsInHits, noMiss []trace.Ref
	for p := uint64(0); p < 20; p++ { // 20 cold misses ...
		endsInHits = append(endsInHits, page(p))
	}
	for i := 0; i < 50; i++ { // ... then 50 hits on the resident pages 12..19
		endsInHits = append(endsInHits, page(12+uint64(i%8)))
	}
	for i := 0; i < 101; i++ {
		noMiss = append(noMiss, page(12+uint64(i*3%8)))
	}
	parts := [][]trace.Ref{endsInHits, noMiss, batchTestStream(t, "mcf", 5000), noMiss[:1], noMiss}

	g := NewGroup()
	var timed, timedRef []*TimingSimulator
	var functional, functionalRef []*Simulator
	for i := range equivMechs() {
		timed = append(timed, NewTiming(tcfg, equivMechs()[i]))
		timedRef = append(timedRef, NewTiming(tcfg, equivMechs()[i]))
		functional = append(functional, New(tcfg.Config, equivMechs()[i]))
		functionalRef = append(functionalRef, New(tcfg.Config, equivMechs()[i]))
		g.Add(timed[i].Simulator)
		g.Add(functional[i])
	}
	if !g.SharedFrontend() {
		t.Fatal("timed and functional members of one geometry must share the frontend")
	}
	var refs uint64
	for ci, part := range parts {
		misses := timedRef[0].Stats().Misses
		g.RefBatch(part)
		refs += uint64(len(part))
		for i := range timed {
			timedRef[i].RefBatch(part)
			functionalRef[i].RefBatch(part)
			if got, want := timed[i].Stats(), timedRef[i].Stats(); got != want || got.Refs != refs {
				t.Fatalf("chunk %d, timed member %d:\n got %+v\nwant %+v (Refs %d)", ci, i, got, want, refs)
			}
			if got, want := timed[i].Now(), timedRef[i].Now(); got != want {
				t.Fatalf("chunk %d, timed member %d: Now %d, want %d", ci, i, got, want)
			}
			if got, want := functional[i].Stats(), functionalRef[i].Stats(); got != want {
				t.Fatalf("chunk %d, functional member %d:\n got %+v\nwant %+v", ci, i, got, want)
			}
		}
		if ci == 1 && timedRef[0].Stats().Misses != misses {
			t.Fatal("the no-miss chunk missed; the test stream no longer covers that case")
		}
	}
}

// TestGroupLoneMemberShared: a single pristine member runs its own TLB as
// the shared frontend (so a one-cell sweep shard takes the same path as a
// wide one) and matches its independent run.
func TestGroupLoneMemberShared(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 16}, BufferEntries: 4, PageShift: 12}
	refs := batchTestStream(t, "gzip", 20_000)
	g := NewGroup(New(cfg, prefetch.NewRecency()))
	if !g.SharedFrontend() {
		t.Fatal("a lone pristine member must run as a shared frontend")
	}
	g.RefBatch(refs)
	ind := New(cfg, prefetch.NewRecency())
	ind.RefBatch(refs)
	if got, want := g.Members()[0].Stats(), ind.Stats(); got != want {
		t.Fatalf("lone member %+v != independent %+v", got, want)
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestGroupHeterogeneousMemberPanics: members of different TLB geometry or
// page size see different miss streams, so they cannot share a frontend
// and must not join one group.
func TestGroupHeterogeneousMemberPanics(t *testing.T) {
	cfgA := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	cfgB := Config{TLB: tlb.Config{Entries: 16, Ways: 2}, BufferEntries: 8, PageShift: 12}
	cfgC := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 13}
	mustPanic(t, "NewGroup over two geometries", func() {
		NewGroup(New(cfgA, prefetch.NewSequential(true)), New(cfgB, core.NewDistance(64, 1, 2)))
	})
	g := NewGroup(New(cfgA, nil))
	mustPanic(t, "Add of another geometry", func() { g.Add(New(cfgB, nil)) })
	mustPanic(t, "Add of another page size", func() { g.Add(New(cfgC, nil)) })
	if len(g.Members()) != 1 {
		t.Fatalf("rejected members joined: %d members", len(g.Members()))
	}
}

// TestGroupFullyAssociativeSpellingsShare: Ways 0 and Ways == Entries are
// the same fully associative TLB (the sweep key treats them as one cell),
// so they share one frontend and match their independent runs.
func TestGroupFullyAssociativeSpellingsShare(t *testing.T) {
	implicit := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	explicit := Config{TLB: tlb.Config{Entries: 32, Ways: 32}, BufferEntries: 4, PageShift: 12}
	g := NewGroup(New(implicit, prefetch.NewRecency()), New(explicit, core.NewDistance(64, 1, 2)))
	if !g.SharedFrontend() {
		t.Fatal("the two fully associative spellings did not share the frontend")
	}
	refs := batchTestStream(t, "gzip", 30_000)
	feedChunks(g, refs)
	for i, ind := range []*Simulator{New(implicit, prefetch.NewRecency()), New(explicit, core.NewDistance(64, 1, 2))} {
		ind.RefBatch(refs)
		if got, want := g.Members()[i].Stats(), ind.Stats(); got != want {
			t.Errorf("member %d: group %+v != independent %+v", i, got, want)
		}
	}
}

// TestGroupUsedMemberPanics checks the pristine-state guard: a member that
// already simulated references on its own has TLB state an empty
// canonical TLB would not reproduce, so it cannot join a group.
func TestGroupUsedMemberPanics(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 8}, BufferEntries: 4, PageShift: 12}
	a := New(cfg, nil)
	a.Ref(0, 42<<12) // a now has TLB state the canonical TLB wouldn't share
	// Each case builds its own pristine first member: NewGroup adds its
	// members in order, so a first member shared across cases would
	// already belong to a group after the first one, and the later cases
	// would panic on it, never reaching a.
	mustPanic(t, "NewGroup with a used member", func() { NewGroup(New(cfg, nil), a) })
	mustPanic(t, "Add of a used member", func() { NewGroup(New(cfg, nil)).Add(a) })
	// A statistics reset does not make a used member pristine: its TLB
	// stays warm.
	a.ResetStats()
	mustPanic(t, "Add of a used member after ResetStats", func() { NewGroup(New(cfg, nil)).Add(a) })
}

// TestGroupAddForeignMemberPanics checks the other half of the pristine
// guard: a simulator that belongs to a Group, as its first member or a
// later one, already feeds through that group's front, so it cannot join a
// second Group; nor can one that ran alone, whatever the first member of
// the group it joins.
func TestGroupAddForeignMemberPanics(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 8}, BufferEntries: 4, PageShift: 12}
	first, later := New(cfg, nil), New(cfg, nil)
	NewGroup(first, later)
	mustPanic(t, "NewGroup of another group's first member", func() { NewGroup(first) })
	mustPanic(t, "Add of another group's later member", func() { NewGroup(New(cfg, nil)).Add(later) })
	alone := New(cfg, nil)
	alone.Ref(0, 42<<12)
	alone.ResetStats()
	mustPanic(t, "Add of a member that ran alone", func() { NewGroup(New(cfg, nil)).Add(alone) })
}

// TestGroupMembersShareOneTLB: a simulator builds no TLB until it runs or
// joins a Group, and a Group's members all probe the first member's.
func TestGroupMembersShareOneTLB(t *testing.T) {
	tc := DefaultTiming()
	a, b := New(tc.Config, nil), NewTiming(tc, prefetch.NewRecency()).Simulator
	if a.TLB() != nil {
		t.Fatal("sim.New built a TLB before the simulator ran")
	}
	NewGroup(a, b)
	if a.TLB() == nil || a.TLB() != b.TLB() {
		t.Fatalf("members probe TLBs %p and %p, want one shared TLB", a.TLB(), b.TLB())
	}
}

// TestGroupAddAfterSharedStartPanics: once the shared frontend has
// delivered references, the members' TLB state exists only in the
// canonical TLB, so growing the group must fail loudly instead of
// silently corrupting members.
func TestGroupAddAfterSharedStartPanics(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 8}, BufferEntries: 4, PageShift: 12}
	g := NewGroup(New(cfg, nil), New(cfg, nil))
	g.RefBatch(pageRefs(42))
	if !g.SharedFrontend() {
		t.Fatal("expected shared frontend")
	}
	mustPanic(t, "Add after shared-frontend start", func() { g.Add(New(cfg, nil)) })
}

// TestStatsWindowedUnusedAfterReset: ResetStats opens a new statistics
// window; warmup-era prefetches must not appear in the window's unused
// count (previously the buffer's lifetime counters leaked through, so
// PrefetchesUnused could exceed PrefetchesIssued).
func TestStatsWindowedUnusedAfterReset(t *testing.T) {
	s := New(Config{TLB: tlb.Config{Entries: 8}, BufferEntries: 4, PageShift: 12},
		prefetch.NewSequential(true))
	s.Ref(0, 10<<12) // warmup: prefetches page 11, never used
	s.ResetStats()
	st := s.Stats()
	if st.PrefetchesIssued != 0 || st.PrefetchesUnused != 0 {
		t.Fatalf("fresh window: issued=%d unused=%d, want 0,0",
			st.PrefetchesIssued, st.PrefetchesUnused)
	}
	// A warmup-era prefetch used inside the window counts as a buffer hit
	// but never as window-unused, and must not underflow anything.
	s.Ref(0, 11<<12) // uses the warmup prefetch of 11; prefetches 12
	st = s.Stats()
	if st.BufferHits != 1 {
		t.Fatalf("buffer hits = %d, want 1", st.BufferHits)
	}
	if st.PrefetchesUnused != 1 { // page 12, issued in-window, unused
		t.Fatalf("unused = %d, want 1", st.PrefetchesUnused)
	}
	if st.PrefetchesUnused > st.PrefetchesIssued {
		t.Fatalf("unused %d exceeds issued %d", st.PrefetchesUnused, st.PrefetchesIssued)
	}
}

// TestStatsCountResidentUnusedPrefetches is the regression test for the
// unused-prefetch accounting: prefetches still sitting in the buffer at
// snapshot time were never used and must count, not only the ones the
// buffer evicted.
func TestStatsCountResidentUnusedPrefetches(t *testing.T) {
	s := New(Config{TLB: tlb.Config{Entries: 8}, BufferEntries: 4, PageShift: 12},
		prefetch.NewSequential(true))
	// Page 10 misses; SP prefetches page 11, which is never referenced.
	s.Ref(0, 10<<12)
	st := s.Stats()
	if st.PrefetchesIssued != 1 {
		t.Fatalf("issued = %d, want 1", st.PrefetchesIssued)
	}
	if st.PrefetchesUnused != 1 {
		t.Fatalf("PrefetchesUnused = %d, want 1 (page 11 resident and unused)", st.PrefetchesUnused)
	}
	// Using the prefetch removes it from the unused count.
	s.Ref(0, 11<<12) // buffer hit on 11; SP prefetches 12 (again unused)
	st = s.Stats()
	if st.BufferHits != 1 {
		t.Fatalf("buffer hits = %d, want 1", st.BufferHits)
	}
	if st.PrefetchesUnused != 1 {
		t.Fatalf("PrefetchesUnused = %d, want 1 (only page 12 outstanding)", st.PrefetchesUnused)
	}
	// An eviction moves an entry from resident-unused to evicted-unused
	// without double counting: fill the 4-entry buffer past capacity.
	for p := uint64(100); p < 108; p += 2 {
		s.Ref(0, p<<12) // each miss prefetches p+1; none ever used
	}
	st = s.Stats()
	wantUnused := st.PrefetchesIssued - st.BufferHits // nothing else consumed them
	if st.PrefetchesUnused != wantUnused {
		t.Fatalf("PrefetchesUnused = %d, want %d (= issued %d - used %d)",
			st.PrefetchesUnused, wantUnused, st.PrefetchesIssued, st.BufferHits)
	}
}

// TestGroupAsksSharedMechanismOnce pins how a Group serves members built
// around one mechanism instance: the instance is asked once per miss,
// whatever the number and kind of members holding it, while a member with
// an instance of its own is asked for itself.
func TestGroupAsksSharedMechanismOnce(t *testing.T) {
	one := &recorder{inner: prefetch.NewRecency()}
	own := &recorder{inner: prefetch.NewRecency()}
	g := NewGroup(New(Default(), one), NewTiming(DefaultTiming(), one).Simulator, New(Default(), own), New(Default(), one))
	feedChunks(g, batchTestStream(t, "mcf", 50_000))
	misses := g.Members()[0].Stats().Misses
	if misses == 0 || uint64(len(one.misses)) != misses || uint64(len(own.misses)) != misses {
		t.Fatalf("shared instance asked %d times, own instance %d times, for %d misses", len(one.misses), len(own.misses), misses)
	}
}
