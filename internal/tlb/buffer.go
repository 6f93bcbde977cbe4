package tlb

import "tlbprefetch/internal/assoc"

// PrefetchBuffer is the small fully associative buffer that receives
// prefetched translations (paper Figure 1). It is probed on every TLB miss;
// a hit removes the entry (it migrates into the TLB) and counts toward the
// mechanism's prediction accuracy.
//
// Replacement is FIFO over prefetch insertions: a newly prefetched entry
// evicts the oldest still-unused prefetch. This is the behaviour behind the
// paper's observation that "a more aggressive scheme can end up evicting
// entries before they are used".
//
// Each entry carries a ReadyAt cycle for the timing model (the cycle the
// prefetch completes and the translation is actually usable). The
// functional simulator passes 0.
//
// The buffer runs the internal/assoc engine as a single fully associative
// set in FIFO discipline — insert at the recency head, never promote, evict
// from the tail — so insert, probe and take-out are O(1) with no map and no
// per-operation allocation.
//
// Entries are stamped with a statistics epoch so the simulator's
// ResetStats (the warmup fast-forward) can count unused prefetches over
// the measurement window only: BeginEpoch starts a new window, and
// UnusedInEpoch reports prefetches inserted in the current window that
// were evicted unused or are still sitting unused.
type PrefetchBuffer struct {
	s     *assoc.Store[bufEntry]
	epoch uint32

	evictedEpoch uint64 // current-epoch insertions evicted before any use
}

type bufEntry struct {
	readyAt uint64
	epoch   uint32
}

// NewPrefetchBuffer builds a buffer with capacity b > 0.
func NewPrefetchBuffer(b int) *PrefetchBuffer {
	if b <= 0 {
		panic("tlb: prefetch buffer capacity must be positive")
	}
	return &PrefetchBuffer{s: assoc.New[bufEntry](b, b)}
}

// Len returns the number of buffered prefetches.
func (p *PrefetchBuffer) Len() int { return p.s.Len() }

// Contains probes for vpn without removing it.
func (p *PrefetchBuffer) Contains(vpn uint64) bool {
	return p.s.Has(vpn)
}

// Insert adds a prefetched translation with the given completion cycle,
// evicting the oldest entry if full. Inserting a VPN already present only
// refreshes its ReadyAt to the earlier of the two times (the translation is
// available as soon as the first prefetch lands); it does not change FIFO
// order. It reports the evicted VPN, if any.
func (p *PrefetchBuffer) Insert(vpn uint64, readyAt uint64) (evictedVPN uint64, wasEvicted bool) {
	if sl, ok := p.s.Find(vpn); ok {
		if old := p.s.Val(sl); readyAt < old.readyAt {
			old.readyAt = readyAt
		}
		return 0, false
	}
	sl, evictedVPN, wasEvicted := p.s.InsertMRU(vpn)
	if wasEvicted {
		// The recycled slot still holds the evicted entry's value here
		// (InsertMRU leaves values in place), so this reads the epoch the
		// evicted prefetch was inserted in.
		if p.s.Val(sl).epoch == p.epoch {
			p.evictedEpoch++
		}
	}
	*p.s.Val(sl) = bufEntry{readyAt: readyAt, epoch: p.epoch}
	return evictedVPN, wasEvicted
}

// TakeOut removes vpn if present and returns its ReadyAt cycle. This is the
// buffer-hit path: the entry migrates to the TLB.
func (p *PrefetchBuffer) TakeOut(vpn uint64) (readyAt uint64, ok bool) {
	sl, ok := p.s.Find(vpn)
	if !ok {
		return 0, false
	}
	readyAt = p.s.Val(sl).readyAt
	p.s.Remove(sl)
	return readyAt, true
}

// BeginEpoch starts a new statistics window: prefetches inserted before
// this call no longer count toward UnusedInEpoch.
func (p *PrefetchBuffer) BeginEpoch() {
	p.epoch++
	p.evictedEpoch = 0
}

// UnusedInEpoch counts the current window's never-used prefetches: those
// evicted unused plus those still resident (every resident entry is unused
// by definition — a use removes it). The resident scan is O(capacity) and
// meant for statistics snapshots, not the per-reference path.
func (p *PrefetchBuffer) UnusedInEpoch() uint64 {
	n := p.evictedEpoch
	for sl := p.s.Head(0); sl >= 0; sl = p.s.Next(sl) {
		if p.s.Val(sl).epoch == p.epoch {
			n++
		}
	}
	return n
}

// Flush empties the buffer the way a context switch does: every resident
// entry is a prefetch that never served a miss, so each current-epoch
// entry counts as evicted unused before the storage clears. The count and
// the statistics epoch survive.
func (p *PrefetchBuffer) Flush() {
	for sl := p.s.Head(0); sl >= 0; sl = p.s.Next(sl) {
		if p.s.Val(sl).epoch == p.epoch {
			p.evictedEpoch++
		}
	}
	p.s.Reset()
}
