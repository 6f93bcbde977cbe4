// Package core implements Distance Prefetching (DP), the contribution of
// Kandiraju & Sivasubramaniam, "Going the Distance for TLB Prefetching"
// (ISCA 2002), as one type with three indexings: the paper's distance
// index (DP), and the two refinements it flags as future work, PC+distance
// (DP-PC) and two consecutive distances (DP2).
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
//
// The paper's §2.5 and §4 name the two refinements as open questions: "One
// could, perhaps, envision indexing this table using the PC value together
// with the distance, or using a set of consecutive distances." They keep
// DP's row format and its miss handler, and differ only in the key that
// indexes the table (cmd/experiments ext-dpvariants compares all three).
package core

import (
	"fmt"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/table"
)

// index selects the key that indexes a Distance table.
type index uint8

const (
	// byDistance keys a row by the current distance (DP).
	byDistance index = iota
	// byPCDistance qualifies the distance with the missing PC (DP-PC): the
	// same distance may mean different things at different code sites, at
	// the cost of DP's PC-agnostic generalization across loop nests.
	byPCDistance
	// byDistancePair keys a row by (previous distance, current distance)
	// (DP2): a longer context, sharper on long repeating motifs, slower to
	// warm up, and more rows needed for the same coverage.
	byDistancePair
)

// indexings holds each index's mechanism name and Table 1 indexing.
var indexings = [...]struct{ name, indexedBy string }{
	byDistance:     {"DP", "distance"},
	byPCDistance:   {"DP-PC", "PC and distance"},
	byDistancePair: {"DP2", "two consecutive distances"},
}

// Distance is the DP prefetcher under one of its three indexings. It
// implements prefetch.Prefetcher.
//
// The worked example from the paper (§2.5): for the reference string
// 1, 2, 4, 5, 7, 8 the table learns "1 → 2" and "2 → 1" in just two rows,
// whereas Markov prefetching needs a row per page (six).
type Distance struct {
	t     *table.Table[table.SlotList]
	slots int
	index index

	prevVPN  uint64
	hasPrev  bool
	prevDist int64
	hasDist  bool
	// prevKey is the previous miss's row key; DP2's first distance has
	// none, since its key needs a distance before it.
	prevKey uint64
	hasKey  bool
}

func newDistance(entries, ways, s int, ix index) *Distance {
	return &Distance{
		t:     table.New[table.SlotList](entries, ways),
		slots: s,
		index: ix,
	}
}

// NewDistance builds a DP prefetcher: entries rows, ways-associative,
// s prediction slots per row. The paper's recommended operating point is a
// direct-mapped 32-256 entry table with s=2.
func NewDistance(entries, ways, s int) *Distance {
	return newDistance(entries, ways, s, byDistance)
}

// NewDistancePC builds the PC+distance-indexed variant (DP-PC).
func NewDistancePC(entries, ways, s int) *Distance {
	return newDistance(entries, ways, s, byPCDistance)
}

// NewDistance2 builds the two-consecutive-distances variant (DP2).
func NewDistance2(entries, ways, s int) *Distance {
	return newDistance(entries, ways, s, byDistancePair)
}

func pcDistKey(pc uint64, dist int64) uint64 {
	// Fold the PC into the high bits so the distance still picks the set
	// (low bits), mirroring how hardware would concatenate index fields.
	return uint64(dist) ^ (pc << 32) ^ (pc >> 16)
}

func distPairKey(d1, d2 int64) uint64 {
	// Mix the older distance into the high bits; the newest distance keeps
	// the low bits (set index), like DP.
	return uint64(d2) ^ (uint64(d1) << 27) ^ (uint64(d1) >> 37)
}

// key derives the row key of a miss at pc with distance dist, and whether
// it has one yet.
func (d *Distance) key(pc uint64, dist int64) (uint64, bool) {
	switch d.index {
	case byPCDistance:
		return pcDistKey(pc, dist), true
	case byDistancePair:
		return distPairKey(d.prevDist, dist), d.hasDist
	}
	return uint64(dist), true
}

// Name implements prefetch.Prefetcher.
func (d *Distance) Name() string { return indexings[d.index].name }

// OnMiss implements prefetch.Prefetcher, following the five steps of the
// paper's Figure 6:
//  1. calculate the current distance;
//  2. index the table by that distance (or the variant's key);
//  3. if present, add the predicted distances to the current page # and
//     issue those prefetches;
//  4. store the current distance as a predicted distance of the previous
//     miss's key;
//  5. overwrite the previous distance and key by the current ones.
func (d *Distance) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	if !d.hasPrev {
		// First miss: establishes the previous page only.
		d.prevVPN = ev.VPN
		d.hasPrev = true
		return prefetch.Action{}
	}
	dist := int64(ev.VPN) - int64(d.prevVPN) // step 1
	key, hasKey := d.key(ev.PC, dist)
	if hasKey {
		if row, ok := d.t.Lookup(key); ok { // step 2
			for _, pd := range row.Values() { // step 3
				dst = append(dst, uint64(int64(ev.VPN)+pd))
			}
		}
	}
	if d.hasKey { // step 4
		row, existed := d.t.GetOrInsertLazy(d.prevKey)
		if !existed {
			row.Reset(d.slots)
		}
		row.Touch(dist)
	}
	d.prevVPN = ev.VPN // step 5
	d.prevDist, d.hasDist = dist, true
	d.prevKey, d.hasKey = key, hasKey
	if len(dst) == 0 {
		return prefetch.Action{}
	}
	return prefetch.Action{Prefetches: dst}
}

// Reset implements prefetch.Prefetcher.
func (d *Distance) Reset() {
	d.t.Reset()
	d.hasPrev, d.hasDist, d.hasKey = false, false, false
}

// TableLen reports occupied rows (diagnostics; the paper's point is that
// this stays tiny for strided codes).
func (d *Distance) TableLen() int { return d.t.Len() }

// HardwareInfo implements prefetch.HardwareDescriber (Table 1's DP column).
func (d *Distance) HardwareInfo() prefetch.HardwareInfo {
	return prefetch.HardwareInfo{
		Mechanism:     d.Name(),
		Rows:          "r",
		RowContents:   fmt.Sprintf("distance tag, %d prediction distances", d.slots),
		TableLocation: "on-chip",
		IndexedBy:     indexings[d.index].indexedBy,
		StateMemOps:   "0",
		MaxPrefetches: fmt.Sprintf("%d", d.slots),
	}
}

var _ prefetch.Prefetcher = (*Distance)(nil)
var _ prefetch.HardwareDescriber = (*Distance)(nil)
