package prefetch

import (
	"fmt"
	"strconv"

	"tlbprefetch/internal/table"
)

// maspRow is one MASP table row: the page the PC last missed on, plus the
// s most recent distinct strides observed at that PC (LRU ordered).
type maspRow struct {
	prevVPN uint64
	strides table.SlotList
}

// MASP is the multi-stride generalization of ASP (after the agile TLB
// prefetching study of Vavouliotis et al., ISCA 2021): where ASP's
// reference prediction table tracks a single stride per PC behind a
// confirmation state machine, MASP keeps the s most recent distinct strides
// per PC. A stride is confirmed the second time it is observed — it need
// not be consecutive, so interleaved access patterns from one instruction
// (e.g. two arrays walked with different strides) that defeat ASP's
// single-slot row are captured. On confirmation, MASP prefetches the
// current page plus every tracked stride, strongest (most recently
// confirmed) first.
type MASP struct {
	t     *table.Table[maspRow]
	slots int
}

// NewMASP builds a MASP prefetcher: entries rows, ways-associative, with s
// stride slots per row (s == 1 degenerates to a stateless ASP without the
// Chen & Baer confirmation machine).
func NewMASP(entries, ways, s int) *MASP {
	if s <= 0 {
		panic("prefetch: MASP needs positive stride slots")
	}
	return &MASP{
		t:     table.New[maspRow](entries, ways),
		slots: s,
	}
}

// Name implements Prefetcher.
func (m *MASP) Name() string { return "MASP" }

// OnMiss implements Prefetcher.
func (m *MASP) OnMiss(ev Event, dst []uint64) Action {
	row, existed := m.t.GetOrInsertLazy(ev.PC)
	if !existed {
		// First sighting of this PC (or its row was evicted): recycle the
		// slot storage and establish the previous page only.
		row.prevVPN = ev.VPN
		row.strides.Reset(m.slots)
		return Action{}
	}
	stride := int64(ev.VPN) - int64(row.prevVPN)
	row.prevVPN = ev.VPN
	if stride == 0 {
		return Action{}
	}
	confirmed := row.strides.Contains(stride)
	row.strides.Touch(stride)
	if !confirmed {
		// New stride: learn it, but don't predict until it repeats.
		return Action{}
	}
	for _, s := range row.strides.Values() {
		dst = append(dst, uint64(int64(ev.VPN)+s))
	}
	return Action{Prefetches: dst}
}

// Reset implements Prefetcher.
func (m *MASP) Reset() { m.t.Reset() }

// TableLen reports occupied rows (diagnostics).
func (m *MASP) TableLen() int { return m.t.Len() }

// HardwareInfo implements HardwareDescriber.
func (m *MASP) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     "MASP",
		Rows:          "r",
		RowContents:   fmt.Sprintf("PC tag, page #, %d strides", m.slots),
		TableLocation: "on-chip",
		IndexedBy:     "PC",
		StateMemOps:   "0",
		MaxPrefetches: strconv.Itoa(m.slots),
	}
}

var _ Prefetcher = (*MASP)(nil)
var _ HardwareDescriber = (*MASP)(nil)
