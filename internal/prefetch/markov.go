package prefetch

import (
	"fmt"

	"tlbprefetch/internal/table"
)

// Markov implements MP (paper §2.3): a table indexed by the missing virtual
// page number whose rows hold the s pages that missed immediately after this
// page in the past — an approximation of a Markov state-transition diagram
// with LRU-ordered out-edges.
//
// Behaviour on a miss of page q (previous miss was page p):
//  1. predict: if q has a row, prefetch its slot pages (MRU first);
//  2. allocate q's row (empty slots) if absent ("If not found, then this
//     entry is added, and the s slots for this entry are kept empty");
//  3. record: add q into p's slots ("we also go to the entry of the previous
//     page that missed, and add the current miss address into one of its s
//     slots"), evicting LRU within the slots when full. If p's row was
//     itself replaced in the meantime it is re-allocated — the hardware
//     equivalent of an allocate-on-update table write.
type Markov struct {
	t       *table.Table[table.SlotList]
	slots   int
	prevVPN uint64
	hasPrev bool
}

// NewMarkov builds an MP prefetcher: entries rows, ways-associative,
// s prediction slots per row (the paper uses s=2 by default).
func NewMarkov(entries, ways, s int) *Markov {
	return &Markov{
		t:     table.New[table.SlotList](entries, ways),
		slots: s,
	}
}

// Name implements Prefetcher.
func (m *Markov) Name() string { return "MP" }

// OnMiss implements Prefetcher.
func (m *Markov) OnMiss(ev Event, dst []uint64) Action {
	// 1. Predict from the current page's row; 2. allocate it with empty
	// slots when absent (recycling an evicted row's backing storage).
	if row, existed := m.t.GetOrInsertLazy(ev.VPN); existed {
		for _, succ := range row.Values() {
			dst = append(dst, uint64(succ))
		}
	} else {
		row.Reset(m.slots)
	}
	// 3. Record the transition prev -> current.
	if m.hasPrev && m.prevVPN != ev.VPN {
		row, existed := m.t.GetOrInsertLazy(m.prevVPN)
		if !existed {
			row.Reset(m.slots)
		}
		row.Touch(int64(ev.VPN))
	}
	m.prevVPN = ev.VPN
	m.hasPrev = true
	if len(dst) == 0 {
		return Action{}
	}
	return Action{Prefetches: dst}
}

// Reset implements Prefetcher.
func (m *Markov) Reset() {
	m.t.Reset()
	m.hasPrev = false
}

// TableLen reports occupied rows (diagnostics).
func (m *Markov) TableLen() int { return m.t.Len() }

// HardwareInfo implements HardwareDescriber (Table 1's MP column).
func (m *Markov) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     "MP",
		Rows:          "r",
		RowContents:   fmt.Sprintf("page # tag, %d prediction page #s", m.slots),
		TableLocation: "on-chip",
		IndexedBy:     "page #",
		StateMemOps:   "0",
		MaxPrefetches: fmt.Sprintf("%d", m.slots),
	}
}
