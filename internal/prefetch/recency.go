package prefetch

import (
	"strconv"

	"tlbprefetch/internal/pagetable"
)

// Recency implements RP (paper §2.4, after Saulsbury et al.): an LRU stack
// of page table entries threaded through the page table itself. Pages
// referenced at around the same time in the past sit adjacent in the stack,
// so on a miss of page q the mechanism prefetches q's stack neighbours.
//
// Per miss, in order:
//  1. read q's stack neighbours — these are the prefetch candidates;
//  2. unlink q from the stack (it is entering the TLB) — up to 2 pointer
//     writes in memory;
//  3. push the translation the TLB evicted onto the stack top — up to 2
//     more pointer writes.
//
// The pointer writes are memory system operations (the stack lives in the
// page table, not on chip) and are reported via Action.StateMemOps so the
// timing model can charge them; this is RP's fundamental bandwidth cost that
// Table 3 of the paper exposes.
type Recency struct {
	pt     *pagetable.PageTable
	degree int
}

// NewRecency builds an RP prefetcher with its own page table, prefetching
// the missing page's two stack neighbours (the variant the paper
// implements and evaluates).
func NewRecency() *Recency {
	return NewRecencyDegree(2)
}

// NewRecencyDegree builds RP with a wider stack window: degree is the
// maximum number of stack entries prefetched per miss, walked alternately
// outward from the missing page (prev, next, prev's prev, ...). The paper
// notes "there is a variation in [26] with regard to prefetching some more
// entries"; degree 3 reproduces Saulsbury et al.'s three-entry variant.
func NewRecencyDegree(degree int) *Recency {
	if degree < 1 {
		panic("prefetch: RP degree must be at least 1")
	}
	return &Recency{pt: pagetable.New(), degree: degree}
}

// Name implements Prefetcher.
func (r *Recency) Name() string { return "RP" }

// OnMiss implements Prefetcher.
func (r *Recency) OnMiss(ev Event, dst []uint64) Action {
	dst = r.pt.AppendNeighborsN(dst, ev.VPN, r.degree)
	ops := r.pt.Unlink(ev.VPN)
	if ev.HasEvicted {
		ops += r.pt.Push(ev.EvictedVPN)
	}
	act := Action{StateMemOps: ops}
	if len(dst) > 0 {
		act.Prefetches = dst
	}
	return act
}

// Reset implements Prefetcher.
func (r *Recency) Reset() {
	r.pt.Reset()
}

// PageTable exposes the underlying page table for tests and invariant
// checks.
func (r *Recency) PageTable() *pagetable.PageTable { return r.pt }

// HardwareInfo implements HardwareDescriber (Table 1's RP column).
func (r *Recency) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     "RP",
		Rows:          "one per PTE",
		RowContents:   "next, prev pointers",
		TableLocation: "in memory",
		IndexedBy:     "page #",
		StateMemOps:   "4",
		MaxPrefetches: strconv.Itoa(r.degree),
	}
}
