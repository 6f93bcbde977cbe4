package core

import (
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/table"
)

// The paper's §2.5 and §4 name two indexing refinements as open research
// questions: "One could, perhaps, envision indexing this table using the PC
// value together with the distance, or using a set of consecutive
// distances." Both are implemented here for the ablation experiment
// (cmd/experiments ext-dpvariants): they reuse DP's row format and differ
// only in the key that indexes the table.

// DistancePC is the PC⊕distance-indexed DP variant. The intuition: the same
// distance may mean different things at different code sites, so qualifying
// the index with the PC can disambiguate — at the cost of losing DP's
// PC-agnostic generalization across loop nests.
type DistancePC struct {
	t     *table.Table[table.SlotList]
	slots int

	prevVPN uint64
	hasPrev bool
	prevKey uint64
	hasKey  bool
}

// NewDistancePC builds the PC+distance variant.
func NewDistancePC(entries, ways, s int) *DistancePC {
	return &DistancePC{
		t:     table.New[table.SlotList](entries, ways),
		slots: s,
	}
}

func pcDistKey(pc uint64, dist int64) uint64 {
	// Fold the PC into the high bits so the distance still picks the set
	// (low bits), mirroring how hardware would concatenate index fields.
	return uint64(dist) ^ (pc << 32) ^ (pc >> 16)
}

// Name implements prefetch.Prefetcher.
func (d *DistancePC) Name() string { return "DP-PC" }

// OnMiss implements prefetch.Prefetcher.
func (d *DistancePC) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	if !d.hasPrev {
		d.prevVPN = ev.VPN
		d.hasPrev = true
		return prefetch.Action{}
	}
	dist := int64(ev.VPN) - int64(d.prevVPN)
	key := pcDistKey(ev.PC, dist)
	if row, ok := d.t.Lookup(key); ok {
		for _, pd := range row.Values() {
			dst = append(dst, uint64(int64(ev.VPN)+pd))
		}
	}
	if d.hasKey {
		row, existed := d.t.GetOrInsertLazy(d.prevKey)
		if !existed {
			row.Reset(d.slots)
		}
		row.Touch(dist)
	}
	d.prevVPN = ev.VPN
	d.prevKey = key
	d.hasKey = true
	if len(dst) == 0 {
		return prefetch.Action{}
	}
	return prefetch.Action{Prefetches: dst}
}

// Reset implements prefetch.Prefetcher.
func (d *DistancePC) Reset() {
	d.t.Reset()
	d.hasPrev, d.hasKey = false, false
}

// Distance2 is the two-consecutive-distances variant: the table key is the
// pair (previous distance, current distance), giving the predictor a longer
// context — sharper on long repeating motifs, slower to warm up, and more
// rows needed for the same coverage.
type Distance2 struct {
	t     *table.Table[table.SlotList]
	slots int

	prevVPN   uint64
	hasPrev   bool
	d1, d2    int64 // last two distances (d2 is the most recent)
	haveDists int   // 0, 1 or 2
}

// NewDistance2 builds the two-distance variant.
func NewDistance2(entries, ways, s int) *Distance2 {
	return &Distance2{
		t:     table.New[table.SlotList](entries, ways),
		slots: s,
	}
}

func distPairKey(d1, d2 int64) uint64 {
	// Mix the older distance into the high bits; the newest distance keeps
	// the low bits (set index), like DP.
	return uint64(d2) ^ (uint64(d1) << 27) ^ (uint64(d1) >> 37)
}

// Name implements prefetch.Prefetcher.
func (d *Distance2) Name() string { return "DP2" }

// OnMiss implements prefetch.Prefetcher.
func (d *Distance2) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	if !d.hasPrev {
		d.prevVPN = ev.VPN
		d.hasPrev = true
		return prefetch.Action{}
	}
	dist := int64(ev.VPN) - int64(d.prevVPN)
	if d.haveDists >= 1 {
		// Current context: (previous distance, current distance).
		key := distPairKey(d.d2, dist)
		if row, ok := d.t.Lookup(key); ok {
			for _, pd := range row.Values() {
				dst = append(dst, uint64(int64(ev.VPN)+pd))
			}
		}
	}
	if d.haveDists >= 2 {
		// Record: the pair (d1, d2) was followed by dist.
		row, existed := d.t.GetOrInsertLazy(distPairKey(d.d1, d.d2))
		if !existed {
			row.Reset(d.slots)
		}
		row.Touch(dist)
	}
	d.prevVPN = ev.VPN
	d.d1, d.d2 = d.d2, dist
	if d.haveDists < 2 {
		d.haveDists++
	}
	if len(dst) == 0 {
		return prefetch.Action{}
	}
	return prefetch.Action{Prefetches: dst}
}

// Reset implements prefetch.Prefetcher.
func (d *Distance2) Reset() {
	d.t.Reset()
	d.hasPrev = false
	d.haveDists = 0
}

var _ prefetch.Prefetcher = (*DistancePC)(nil)
var _ prefetch.Prefetcher = (*Distance2)(nil)
