package prefetch

import (
	"strconv"

	"tlbprefetch/internal/table"
)

// STMS implements sampled temporal memory streaming (after Wenisch et al.,
// HPCA 2009, as adapted to TLB miss streams): a global history buffer (GHB)
// holding the last r missing page numbers in miss order, plus an index table
// mapping a page number to its most recent GHB position. On a miss of page
// q, the index locates q's previous occurrence in the history and the pages
// that followed it *then* are prefetched *now* — temporal correlation, the
// generalization of MP from one-successor rows to arbitrary-length streams.
//
// The exemplar implementations keep the GHB as a growable vector and the
// index as a map; here both are flat arrays sized at construction — the GHB
// is a ring of r page numbers addressed by a monotonically increasing
// position counter, and the index is the same set-associative LRU table the
// other mechanisms use — so the miss path stays allocation-free.
type STMS struct {
	idx    *table.Table[uint64] // page # -> absolute GHB position of its last occurrence
	ghb    []uint64             // ring: ghb[pos % r] is the page recorded at position pos
	head   uint64               // next absolute position to write
	degree int
}

// NewSTMS builds an STMS prefetcher: an entries-deep GHB ring with an
// entries-row, ways-associative index table, issuing up to degree
// prefetches (successive history entries) per miss.
func NewSTMS(entries, ways, degree int) *STMS {
	if entries <= 0 {
		panic("prefetch: STMS needs a positive GHB size")
	}
	if degree < 1 {
		panic("prefetch: STMS degree must be at least 1")
	}
	return &STMS{
		idx:    table.New[uint64](entries, ways),
		ghb:    make([]uint64, entries),
		degree: degree,
	}
}

// Name implements Prefetcher.
func (s *STMS) Name() string { return "STMS" }

// OnMiss implements Prefetcher.
func (s *STMS) OnMiss(ev Event, dst []uint64) Action {
	capacity := uint64(len(s.ghb))
	// 1. Predict: find the trigger page's previous occurrence and replay
	// the pages that followed it. A position is live iff it is within the
	// last r recorded misses; older index entries are stale (their ring
	// slot has been overwritten) and must be ignored.
	if p, ok := s.idx.Lookup(ev.VPN); ok {
		pos := *p
		if s.head-pos <= capacity {
			for i := uint64(1); i <= uint64(s.degree); i++ {
				succ := pos + i
				if succ >= s.head {
					break
				}
				if v := s.ghb[succ%capacity]; v != ev.VPN {
					dst = append(dst, v)
				}
			}
		}
	}
	// 2. Train: record this miss in the history and point the index at it.
	s.ghb[s.head%capacity] = ev.VPN
	s.idx.Insert(ev.VPN, s.head)
	s.head++
	if len(dst) == 0 {
		return Action{}
	}
	return Action{Prefetches: dst}
}

// Reset implements Prefetcher.
func (s *STMS) Reset() {
	s.idx.Reset()
	s.head = 0
}

// TableLen reports occupied index rows (diagnostics).
func (s *STMS) TableLen() int { return s.idx.Len() }

// HardwareInfo implements HardwareDescriber.
func (s *STMS) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     "STMS",
		Rows:          "r (GHB) + r (index)",
		RowContents:   "GHB: page #; index: page # tag, GHB position",
		TableLocation: "on-chip",
		IndexedBy:     "page #",
		StateMemOps:   "0",
		MaxPrefetches: strconv.Itoa(s.degree),
	}
}

var _ Prefetcher = (*STMS)(nil)
var _ HardwareDescriber = (*STMS)(nil)
