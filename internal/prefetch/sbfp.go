package prefetch

import (
	"math/bits"
	"strconv"
)

// SBFP implements sampling-based free TLB prefetching (after Vavouliotis et
// al., ISCA 2021). The insight: a page-table walk fetches a cache line of
// PTEs, so the translations at small "free distances" around the missing
// page (±1..±7 pages in an 8-PTE line) arrive for free with the demand walk.
// SBFP decides *which* of those free translations are worth keeping with a
// free distance table (FDT) of saturating usefulness counters, one per
// distance:
//
//   - distances whose counter is at or above a confidence threshold are
//     prefetched and tracked in a bounded prefetch queue (PQ);
//   - the rest are merely *sampled*: remembered in a bounded sampler so a
//     later miss on the page proves the distance would have been useful.
//
// A miss matching a PQ or sampler entry increments that entry's distance
// counter; a PQ entry evicted unused decrements its distance counter. Both
// structures are FIFO rings of fixed slots: a matched slot is invalidated
// and stays a hole until the cursor returns to it. Like RP, the hardware is
// fixed, with no table geometry to sweep.
//
// The rings are kept as the hardware keeps them — struct-of-arrays slots
// with a valid bit each — plus a lookup index standing in for the CAM
// match: per bucket of VPN low bits, a mask of the slots whose page falls
// in it. A miss walks only its bucket's slots, and a push moves one bit, so
// a miss costs the same however full the rings are. The 14 candidates of
// one miss are consecutive pages and land in distinct buckets.
const (
	sbfpMaxDistance = 7    // free distances are -7..-1 and +1..+7
	sbfpDistances   = 14   // counted distances (2 * sbfpMaxDistance)
	sbfpThreshold   = 100  // counter value at which a distance is prefetched
	sbfpMaxCounter  = 1023 // 10-bit saturating counters
	sbfpSamplerSize = 64   // below-threshold candidates remembered
	sbfpPQSize      = 32   // in-flight free prefetches tracked
	sbfpBuckets     = 64   // lookup-index buckets, keyed by VPN low bits
)

// sbfpCandidate is one free distance in visiting order: the page offset
// (two's complement for negative distances), its FDT counter index and
// that index's bit in the confident mask.
type sbfpCandidate struct {
	delta uint64
	bit   uint16
	idx   uint8
	neg   bool
}

// sbfpOrder visits the free distances in magnitude order (+1, -1, +2, -2,
// ...) so nearer pages claim prefetch-buffer and PQ space first.
var sbfpOrder = func() (o [sbfpDistances]sbfpCandidate) {
	for k := range o {
		dist := k/2 + 1
		if k%2 == 1 {
			dist = -dist
		}
		o[k] = sbfpCandidate{delta: uint64(dist), bit: 1 << sbfpIndex(dist), idx: uint8(sbfpIndex(dist)), neg: dist < 0}
	}
	return o
}()

// SBFP is the sampling-based free prefetcher. Construct with NewSBFP.
type SBFP struct {
	fdt       [sbfpDistances]uint16
	confident uint16 // bit i set while fdt[i] >= sbfpThreshold

	// Sampler slots: page, distance (as its FDT index), valid bits, and
	// the bucket index over the slots' pages.
	samplerVPN    [sbfpSamplerSize]uint64
	samplerDist   [sbfpSamplerSize]uint8
	samplerValid  uint64
	samplerNext   uint
	samplerBucket [sbfpBuckets]uint64

	// PQ slots, laid out as the sampler's.
	pqVPN    [sbfpPQSize]uint64
	pqDist   [sbfpPQSize]uint8
	pqValid  uint32
	pqNext   uint
	pqBucket [sbfpBuckets]uint32
}

// NewSBFP builds an SBFP prefetcher with the published structure sizes
// (14 distances, threshold 100, 10-bit counters, 64-entry sampler,
// 32-entry PQ).
func NewSBFP() *SBFP { return &SBFP{} }

// sbfpIndex maps a free distance (-7..-1, 1..7) to its FDT counter index.
func sbfpIndex(dist int) int {
	if dist < 0 {
		return dist + sbfpMaxDistance // -7..-1 -> 0..6
	}
	return dist + sbfpMaxDistance - 1 // 1..7 -> 7..13
}

// Name implements Prefetcher.
func (s *SBFP) Name() string { return "SBFP" }

// OnMiss implements Prefetcher.
func (s *SBFP) OnMiss(ev Event, dst []uint64) Action {
	// 1. Train: a miss on a tracked page proves its distance useful. Every
	// matching slot counts, duplicates of one page included.
	b := ev.VPN % sbfpBuckets
	for m := s.pqBucket[b] & s.pqValid; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); s.pqVPN[i] == ev.VPN {
			s.bump(s.pqDist[i])
			s.pqValid &^= 1 << i
		}
	}
	for m := s.samplerBucket[b] & s.samplerValid; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); s.samplerVPN[i] == ev.VPN {
			s.bump(s.samplerDist[i])
			s.samplerValid &^= 1 << i
		}
	}
	// 2. The demand walk exposes every free distance: prefetch the
	// confident ones, sample the rest. Only a miss within 7 pages of either
	// end of the address space has candidates to skip.
	edge := ev.VPN < sbfpMaxDistance || ev.VPN > ^uint64(0)-sbfpMaxDistance
	for k := range sbfpOrder {
		c := &sbfpOrder[k]
		page := ev.VPN + c.delta
		if edge && (page < ev.VPN) != c.neg {
			continue // below page 0, or address-space wraparound
		}
		if s.confident&c.bit != 0 {
			dst = append(dst, page)
			s.pushPQ(page, c.idx)
		} else {
			s.pushSampler(page, c.idx)
		}
	}
	if len(dst) == 0 {
		return Action{}
	}
	return Action{Prefetches: dst}
}

// bump saturating-increments a distance's usefulness counter.
func (s *SBFP) bump(i uint8) {
	if c := &s.fdt[i]; *c < sbfpMaxCounter {
		if *c++; *c == sbfpThreshold {
			s.confident |= 1 << i
		}
	}
}

// pushPQ records an issued free prefetch, retiring the oldest slot. A slot
// still valid at eviction was a prefetch that went unused: its distance
// pays with a counter decrement.
func (s *SBFP) pushPQ(vpn uint64, dist uint8) {
	i := s.pqNext % sbfpPQSize
	bit := uint32(1) << i
	if s.pqValid&bit != 0 {
		if c := &s.fdt[s.pqDist[i]]; *c > 0 {
			if *c == sbfpThreshold {
				s.confident &^= 1 << s.pqDist[i]
			}
			*c--
		}
	}
	s.pqBucket[s.pqVPN[i]%sbfpBuckets] &^= bit
	s.pqBucket[vpn%sbfpBuckets] |= bit
	s.pqVPN[i], s.pqDist[i] = vpn, dist
	s.pqValid |= bit
	s.pqNext = i + 1
}

// pushSampler records a below-threshold candidate. Sampled entries are
// free to discard: eviction carries no penalty.
func (s *SBFP) pushSampler(vpn uint64, dist uint8) {
	i := s.samplerNext % sbfpSamplerSize
	bit := uint64(1) << i
	s.samplerBucket[s.samplerVPN[i]%sbfpBuckets] &^= bit
	s.samplerBucket[vpn%sbfpBuckets] |= bit
	s.samplerVPN[i], s.samplerDist[i] = vpn, dist
	s.samplerValid |= bit
	s.samplerNext = i + 1
}

// Reset implements Prefetcher.
func (s *SBFP) Reset() {
	*s = SBFP{}
}

// HardwareInfo implements HardwareDescriber.
func (s *SBFP) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     "SBFP",
		Rows:          "14 counters + 64 sampler + 32 PQ",
		RowContents:   "10-bit usefulness counter; page #, free distance",
		TableLocation: "on-chip",
		IndexedBy:     "free distance",
		StateMemOps:   "0",
		MaxPrefetches: strconv.Itoa(sbfpDistances),
	}
}

var _ Prefetcher = (*SBFP)(nil)
var _ HardwareDescriber = (*SBFP)(nil)
