package sim

import (
	"fmt"
	"reflect"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
)

// Group fans one reference stream out to many simulators, so that the
// experiment harness can evaluate every mechanism configuration of a figure
// in a single pass over the (regenerated) workload.
//
// Because fills always happen at miss time, members with identical TLB
// geometry see identical TLB contents and identical miss streams, exactly
// as if run separately. Group exploits that: its members must share one
// TLB geometry and page size (the sweep runner's shard key guarantees it),
// and they share one front — the first member's TLB and reference count.
// Each reference probes that one TLB once, and only misses fan out to the
// members' private buffer+mechanism back halves — collapsing N-way
// redundant probe work into one probe while producing bit-identical
// per-member statistics (pinned by TestGroupSharedFrontendEquivalence).
// Only the first member builds a TLB. NewGroup and Add panic on a member
// that would break the equivalence: a different geometry, a member that
// is not pristine (it already ran alone or joined a Group), or any member
// added after the group started.
//
// Members may be functional or timed (the Simulator of a TimingSimulator):
// a timed member's clock charges the references between its misses from
// the shared reference count, so the shared frontend never has to touch a
// member on a TLB hit. The sweep runner drives every single-source shard,
// functional or timed, through one Group, and every mix shard through one
// Group per ASID mode (multiprog.Group, whose Execs empty the shared TLB
// at a context switch). Group has no drain loop of its own: the caller
// pulls the stream (a trace.BatchReader, whether the source is a workload
// model or a recording) and feeds it with RefBatch. A member is fed only
// through its Group.
//
// Members built around the same Prefetcher instance (the same pointer)
// share its predictions. A mechanism sees only the miss stream, which the
// shared frontend makes identical for every member, so one instance serves
// them all: OnMiss runs once per miss, with the event of the first member
// added around the instance, and every such member probes its own buffer,
// keeps its own counters and issues that Action through its own issue step,
// functional or timed. The rule holds only for mechanisms whose OnMiss
// ignores Event.BufferHit, the one per-member field of the event; give each
// member its own instance of any other. Add groups the members by instance
// into units; a member holding an instance of its own is a unit of one.
type Group struct {
	members []*Simulator   // insertion order
	units   [][]*Simulator // members built around one instance, first added first
}

// NewGroup builds a fan-out over the given simulators, checking each as
// Add does.
func NewGroup(members ...*Simulator) *Group {
	g := &Group{members: make([]*Simulator, 0, len(members))}
	for _, m := range members {
		g.Add(m)
	}
	return g
}

// Add appends a member. The first member builds the group's TLB; every
// later one shares the first member's front instead of building its own.
// Add panics when the member cannot share the front: a member that is not
// pristine already has a front of its own in use (it ran alone, or it
// belongs to another Group), once the group has delivered references the
// shared TLB holds state a new member never saw, and a member of another
// geometry would see a different miss stream.
func (g *Group) Add(s *Simulator) {
	if s.front.tlb != nil {
		panic("sim: a Group member must be pristine (it already ran or belongs to a Group)")
	}
	if len(g.members) == 0 {
		s.front.tlb = tlb.New(s.cfg.TLB)
	} else {
		first := g.members[0]
		if first.front.refs != 0 {
			panic("sim: cannot Add to a Group that already delivered references")
		}
		if s.cfg.TLB.Canonical() != first.cfg.TLB.Canonical() || s.cfg.PageShift != first.cfg.PageShift {
			panic(fmt.Sprintf("sim: Group member geometry %+v/page shift %d differs from the frontend's %+v/%d",
				s.cfg.TLB, s.cfg.PageShift, first.cfg.TLB, first.cfg.PageShift))
		}
		s.front = first.front
	}
	g.members = append(g.members, s)
	for i, u := range g.units {
		if sameInstance(u[0].pf, s.pf) {
			g.units[i] = append(u, s)
			return
		}
	}
	g.units = append(g.units, []*Simulator{s})
}

// sameInstance reports whether two mechanisms are one instance: the same
// pointer. A mechanism held by value (Nop, the baseline) is a copy per
// member, so it is never shared.
func sameInstance(a, b prefetch.Prefetcher) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Kind() == reflect.Pointer && va.Type() == vb.Type() && va.Pointer() == vb.Pointer()
}

// Members returns the member simulators in insertion order.
func (g *Group) Members() []*Simulator { return g.members }

// SharedFrontend reports whether the group runs one front for all
// members: every non-empty group does (a lone member runs its own TLB as
// the frontend).
func (g *Group) SharedFrontend() bool { return len(g.members) > 0 }

// RefBatch delivers a chunk of references to every member: one probe of
// the shared TLB per reference, and the back half of every member per
// miss, with one OnMiss per mechanism instance.
func (g *Group) RefBatch(refs []trace.Ref) {
	if len(g.members) == 0 {
		return
	}
	first := g.members[0]
	frontend(first.front, first.cfg.PageShift, refs, g.units)
}
