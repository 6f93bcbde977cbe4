package sim

import "tlbprefetch/internal/trace"

// Group fans one reference stream out to many simulators, so that the
// experiment harness can evaluate every mechanism configuration of a figure
// in a single pass over the (regenerated) workload.
//
// Because fills always happen at miss time, members with identical TLB
// geometry see identical TLB contents and identical miss streams, exactly
// as if run separately. Group exploits that: when every member shares the
// same TLB geometry and page size (the common case — experiments.RunApp
// runs 21 mechanism configurations against one TLB configuration), it runs
// a single canonical TLB as a shared frontend. Each reference probes that
// one TLB once, and only misses fan out to the members' private
// buffer+mechanism back halves — collapsing N-way redundant probe work
// into one probe while producing bit-identical per-member statistics
// (pinned by TestGroupSharedFrontendEquivalence).
//
// Members may be functional or timed (the Simulator of a TimingSimulator):
// a timed member's clock charges the references between its misses from
// its reference count, so the shared frontend never has to touch a member
// on a TLB hit. The sweep runner drives every single-source shard,
// functional or timed, through one Group, and every mix shard through one
// Group per ASID mode (multiprog.Group, which flushes the shared TLB with
// ResetTLB at a context switch). Group has no drain loop of its own: the
// caller pulls the stream (a trace.BatchReader, whether the source is a
// workload model or a recording) and feeds it with RefBatch.
//
// Members with heterogeneous geometry fall back to full independent
// fan-out transparently.
type Group struct {
	members []*Simulator

	prepared bool
	shared   bool
	started  bool // references have been delivered
}

// NewGroup builds a fan-out over the given simulators.
func NewGroup(members ...*Simulator) *Group {
	return &Group{members: members}
}

// Add appends a member. Adding to a group that has already delivered
// references in shared-frontend mode is a programming error: the existing
// members' TLB state lives only in the canonical frontend, so the
// independent fan-out the new member would force cannot reproduce it.
// (Adding to a started independent group is fine — the newcomer simply
// starts cold, as it always did.)
func (g *Group) Add(s *Simulator) {
	if g.started && g.shared {
		panic("sim: cannot Add to a Group that already ran with a shared frontend")
	}
	g.members = append(g.members, s)
	g.prepared = false
}

// Members returns the member simulators in insertion order.
func (g *Group) Members() []*Simulator { return g.members }

// SharedFrontend reports whether the group is (or would be, before the
// first reference) running one canonical TLB for all members. A lone
// pristine member runs its own TLB as the frontend.
func (g *Group) SharedFrontend() bool {
	if !g.prepared {
		g.prepare()
	}
	return g.shared
}

// prepare decides the fan-out strategy. The shared frontend is only safe
// when all members have the same TLB geometry and page size AND are still
// pristine — a member that already simulated references on its own has TLB
// state the canonical TLB would not reproduce.
func (g *Group) prepare() {
	g.prepared = true
	g.shared = false
	if len(g.members) == 0 {
		return
	}
	first := g.members[0]
	for _, m := range g.members {
		if m.cfg.TLB != first.cfg.TLB || m.cfg.PageShift != first.cfg.PageShift {
			return
		}
		if m.stat.Refs != 0 || m.tlb.Len() != 0 {
			return
		}
	}
	g.shared = true
}

// ResetTLB empties the TLB every member sees: the canonical frontend once
// in shared-frontend mode, each member's own TLB otherwise. It is the
// translation flush of a context switch without address-space tags.
func (g *Group) ResetTLB() {
	if g.SharedFrontend() {
		g.members[0].tlb.Reset()
		return
	}
	for _, m := range g.members {
		m.tlb.Reset()
	}
}

// Ref delivers one reference to every member.
func (g *Group) Ref(pc, vaddr uint64) {
	if !g.prepared {
		g.prepare()
	}
	g.started = true
	if !g.shared {
		for _, m := range g.members {
			m.Ref(pc, vaddr)
		}
		return
	}
	// Shared frontend: one canonical probe, misses fan out.
	front := g.members[0]
	vpn := vaddr >> front.cfg.PageShift
	if front.tlb.Access(vpn) {
		for _, m := range g.members {
			m.stat.Refs++
		}
		return
	}
	evicted, hasEvicted := front.tlb.Insert(vpn)
	for _, m := range g.members {
		m.stat.Refs++
		m.miss(pc, vpn, evicted, hasEvicted, front.tlb)
	}
}

// RefBatch delivers a chunk of references to every member — exactly
// len(refs) calls to Ref with the strategy decision and canonical-TLB
// loads hoisted out of the loop.
func (g *Group) RefBatch(refs []trace.Ref) {
	if len(refs) == 0 {
		return
	}
	if !g.prepared {
		g.prepare()
	}
	g.started = true
	if !g.shared {
		for _, m := range g.members {
			m.RefBatch(refs)
		}
		return
	}
	front := g.members[0]
	shift := front.cfg.PageShift
	t := front.tlb
	// Hits are counted once and credited to every member's Refs before its
	// next miss and at the end of the batch: nothing reads Refs in between
	// (a member's clock reads it only at a miss, Now or Stats).
	var hits uint64
	for i := range refs {
		vpn := refs[i].VAddr >> shift
		if t.Access(vpn) {
			hits++
			continue
		}
		evicted, hasEvicted := t.Insert(vpn)
		for _, m := range g.members {
			m.stat.Refs += hits + 1
			m.miss(refs[i].PC, vpn, evicted, hasEvicted, t)
		}
		hits = 0
	}
	if hits > 0 {
		for _, m := range g.members {
			m.stat.Refs += hits
		}
	}
}
