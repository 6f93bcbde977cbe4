package multiprog

import (
	"fmt"
	"testing"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/trace"
)

// segment is one stretch of the schedule during which a single process
// runs: the references between two real process changes.
type segment struct {
	proc int
	refs []trace.Ref
}

// segments cuts the slice model's interleaved stream into explicit
// per-process segments. A quantum expiry with no other process to run
// extends the current segment: it is no switch.
func segments(streams [][]trace.Ref, quantum uint64) []segment {
	it := newSliceInterleaver(streams, quantum)
	var segs []segment
	for {
		p, pc, vaddr, ok := it.Next()
		if !ok {
			return segs
		}
		if len(segs) == 0 || segs[len(segs)-1].proc != p {
			segs = append(segs, segment{proc: p})
		}
		s := &segs[len(segs)-1]
		s.refs = append(s.refs, trace.Ref{PC: pc, VAddr: vaddr})
	}
}

// replay is the scheduler reference model: one plain sim.Simulator per
// cell, driven segment by segment, with the switch actions applied by hand
// between segments and each process's counters taken as Stats() deltas
// around its segments. It shares no code with Exec or Group.
func replay(cfg sim.Config, segs []segment, nprocs int, pol Policy, asid ASIDMode, mk func() prefetch.Prefetcher) ExecResult {
	tables := make([]prefetch.Prefetcher, nprocs)
	for i := range tables {
		if pol == PerProcess || i == 0 {
			tables[i] = mk()
		}
	}
	s := sim.New(cfg, tables[0])
	apps := make([]sim.Stats, nprocs)
	for i, seg := range segs {
		if i > 0 {
			if asid == ASIDFlush {
				s.TLB().Reset()
				s.Buffer().Flush()
			}
			if pol == Flush {
				s.Prefetcher().Reset()
			}
		}
		if pol == PerProcess {
			s.SwapPrefetcher(tables[seg.proc])
		}
		before := s.Stats()
		for _, r := range seg.refs {
			s.Ref(r.PC, r.VAddr)
		}
		after := s.Stats()
		a := &apps[seg.proc]
		a.Refs += after.Refs - before.Refs
		a.Misses += after.Misses - before.Misses
		a.BufferHits += after.BufferHits - before.BufferHits
		a.DemandFetches += after.DemandFetches - before.DemandFetches
		a.PrefetchesRequested += after.PrefetchesRequested - before.PrefetchesRequested
		a.PrefetchesIssued += after.PrefetchesIssued - before.PrefetchesIssued
		a.PrefetchDuplicates += after.PrefetchDuplicates - before.PrefetchDuplicates
		a.StateMemOps += after.StateMemOps - before.StateMemOps
	}
	return ExecResult{Aggregate: s.Stats(), Apps: apps}
}

// TestGroupMatchesPerRefExec checks multiprog.Group, fed by NextRun, against
// the segment replay for every policy × ASID pair at once — one Group
// holding all of them, so the Execs of one ASID mode share a TLB — and
// against per-reference Exec.Ref over Next.
func TestGroupMatchesPerRefExec(t *testing.T) {
	mechs := []struct {
		name string
		mk   func() prefetch.Prefetcher
	}{
		{"none", func() prefetch.Prefetcher { return nil }},
		{"DP", mkDP},
		{"RP", func() prefetch.Prefetcher { return prefetch.NewRecency() }},
		{"SBFP", func() prefetch.Prefetcher { return prefetch.NewSBFP() }},
	}
	for _, tc := range []struct {
		lens    []uint64
		quantum uint64
	}{
		{[]uint64{3000, 2000}, 1},
		{[]uint64{9000, 5000}, 1000},
		{[]uint64{9000, 0, 6000}, 4096},
		{[]uint64{4096, 4096, 4097}, 5000},
		{[]uint64{20, 20_000}, 7}, // a lone survivor runs on undisturbed
	} {
		streams := mixStreams(t, tc.lens)
		segs := segments(streams, tc.quantum)
		type cell struct {
			name string
			want ExecResult
			exec *Exec // driven by the Group
			ref  *Exec // driven per reference
		}
		var cells []cell
		var execs []*Exec
		for _, m := range mechs {
			for _, pol := range []Policy{Retain, Flush, PerProcess} {
				for _, asid := range []ASIDMode{ASIDFlush, ASIDTagged} {
					c := cell{
						name: fmt.Sprintf("lens %v q=%d %s %v/%v", tc.lens, tc.quantum, m.name, pol, asid),
						want: replay(simCfg(), segs, len(streams), pol, asid, m.mk),
						exec: NewExec(simCfg(), pol, asid, len(streams), m.mk),
						ref:  NewExec(simCfg(), pol, asid, len(streams), m.mk),
					}
					cells = append(cells, c)
					execs = append(execs, c.exec)
				}
			}
		}
		g := NewGroup(execs...)
		it := slicesInterleaved(streams, tc.quantum)
		for {
			proc, run, ok := it.NextRun()
			if !ok {
				break
			}
			g.RefBatch(proc, run)
		}
		it = slicesInterleaved(streams, tc.quantum)
		for {
			proc, pc, vaddr, ok := it.Next()
			if !ok {
				break
			}
			for _, c := range cells {
				c.ref.Ref(proc, pc, vaddr)
			}
		}
		for _, c := range cells {
			for path, got := range map[string]ExecResult{"Group": c.exec.Results(), "Exec.Ref": c.ref.Results()} {
				if got.Aggregate != c.want.Aggregate {
					t.Errorf("%s: %s aggregate %+v, replay %+v", c.name, path, got.Aggregate, c.want.Aggregate)
				}
				for p := range c.want.Apps {
					if got.Apps[p] != c.want.Apps[p] {
						t.Errorf("%s: %s app %d %+v, replay %+v", c.name, path, p, got.Apps[p], c.want.Apps[p])
					}
				}
			}
		}
	}
}

// TestGroupSharesOneFrontendPerASIDMode pins the grouping: the Execs of a
// mode share one sim.Group, and the modes never mix.
func TestGroupSharesOneFrontendPerASIDMode(t *testing.T) {
	var execs []*Exec
	for _, pol := range []Policy{Retain, Flush, PerProcess} {
		for _, asid := range []ASIDMode{ASIDFlush, ASIDTagged} {
			execs = append(execs, NewExec(simCfg(), pol, asid, 2, mkDP))
		}
	}
	g := NewGroup(execs...)
	if len(g.fronts) != 2 {
		t.Fatalf("fronts = %d, want one per ASID mode", len(g.fronts))
	}
	front := map[*sim.Simulator]int{}
	for i, f := range g.fronts {
		if !f.SharedFrontend() {
			t.Errorf("front %d does not share its TLB", i)
		}
		for _, m := range f.Members() {
			front[m] = i
		}
	}
	for _, e := range execs {
		i, ok := front[e.sim]
		if !ok || g.flush[i] != (e.asid == ASIDFlush) {
			t.Errorf("%v/%v Exec is not on its ASID mode's front", e.policy, e.asid)
		}
	}
}
