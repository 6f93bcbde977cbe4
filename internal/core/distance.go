// Package core implements Distance Prefetching (DP), the contribution of
// Kandiraju & Sivasubramaniam, "Going the Distance for TLB Prefetching"
// (ISCA 2002), plus the indexing variants the paper flags as future work
// (PC+distance and two-distance indexing).
//
// DP keeps a small on-chip table indexed by the *distance* — the signed
// page-number difference between the current TLB miss and the previous one.
// Each row holds the s distances that followed this distance in the past
// (LRU ordered). On a miss, the current distance is computed, the matching
// row's predicted distances are added to the current page to form prefetch
// addresses, and the current distance is recorded as a successor of the
// previous distance.
//
// Because regular strides collapse into a single row ("distance 1 is
// followed by distance 1") and irregular-but-repeating stride patterns need
// only one row per distinct distance, DP captures both stride-typed and
// history-typed reference behaviour in a table of 32-256 entries, where
// page-indexed history mechanisms need a row per page.
package core

import (
	"fmt"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/table"
)

// Distance is the DP prefetcher. It implements prefetch.Prefetcher.
//
// The worked example from the paper (§2.5): for the reference string
// 1, 2, 4, 5, 7, 8 the table learns "1 → 2" and "2 → 1" in just two rows,
// whereas Markov prefetching needs a row per page (six).
type Distance struct {
	t     *table.Table[table.SlotList]
	slots int

	prevVPN  uint64
	hasPrev  bool
	prevDist int64
	hasDist  bool
}

// NewDistance builds a DP prefetcher: entries rows, ways-associative,
// s prediction slots per row. The paper's recommended operating point is a
// direct-mapped 32-256 entry table with s=2.
func NewDistance(entries, ways, s int) *Distance {
	return &Distance{
		t:     table.New[table.SlotList](entries, ways),
		slots: s,
	}
}

// Name implements prefetch.Prefetcher.
func (d *Distance) Name() string { return "DP" }

// OnMiss implements prefetch.Prefetcher, following the five steps of the
// paper's Figure 6:
//  1. calculate the current distance;
//  2. index the table by that distance;
//  3. if present, add the predicted distances to the current page # and
//     issue those prefetches;
//  4. store the current distance as a predicted distance of the previous
//     distance;
//  5. overwrite the previous distance by the current distance.
func (d *Distance) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	if !d.hasPrev {
		// First miss: establishes the previous page only.
		d.prevVPN = ev.VPN
		d.hasPrev = true
		return prefetch.Action{}
	}
	dist := int64(ev.VPN) - int64(d.prevVPN)     // step 1
	if row, ok := d.t.Lookup(uint64(dist)); ok { // step 2
		for _, pd := range row.Values() { // step 3
			dst = append(dst, uint64(int64(ev.VPN)+pd))
		}
	}
	if d.hasDist { // step 4
		row, existed := d.t.GetOrInsertLazy(uint64(d.prevDist))
		if !existed {
			row.Reset(d.slots)
		}
		row.Touch(dist)
	}
	d.prevVPN = ev.VPN // step 5
	d.prevDist = dist
	d.hasDist = true
	if len(dst) == 0 {
		return prefetch.Action{}
	}
	return prefetch.Action{Prefetches: dst}
}

// Reset implements prefetch.Prefetcher.
func (d *Distance) Reset() {
	d.t.Reset()
	d.hasPrev = false
	d.hasDist = false
}

// TableLen reports occupied rows (diagnostics; the paper's point is that
// this stays tiny for strided codes).
func (d *Distance) TableLen() int { return d.t.Len() }

// HardwareInfo implements prefetch.HardwareDescriber (Table 1's DP column).
func (d *Distance) HardwareInfo() prefetch.HardwareInfo {
	return prefetch.HardwareInfo{
		Mechanism:     "DP",
		Rows:          "r",
		RowContents:   fmt.Sprintf("distance tag, %d prediction distances", d.slots),
		TableLocation: "on-chip",
		IndexedBy:     "distance",
		StateMemOps:   "0",
		MaxPrefetches: fmt.Sprintf("%d", d.slots),
	}
}

var _ prefetch.Prefetcher = (*Distance)(nil)
var _ prefetch.HardwareDescriber = (*Distance)(nil)
