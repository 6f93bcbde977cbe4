// Package prefetch defines the TLB-prefetcher contract and implements the
// previously proposed mechanisms the paper compares against: tagged
// Sequential Prefetching (SP), Arbitrary Stride Prefetching (ASP, Chen &
// Baer's reference prediction table), Markov Prefetching (MP, Joseph &
// Grunwald adapted to TLBs) and Recency-based Prefetching (RP, Saulsbury et
// al.). Distance Prefetching — the paper's contribution — lives in
// internal/core.
//
// All mechanisms follow the paper's uniform adaptation: they observe only
// the miss stream coming out of the TLB (never the raw reference stream) and
// deposit predictions into the shared prefetch buffer.
package prefetch

// Event describes one TLB miss, delivered to the prefetcher after the
// prefetch buffer has been probed and the TLB filled.
type Event struct {
	// VPN is the virtual page number that missed.
	VPN uint64
	// PC is the program counter of the referencing instruction (ASP's
	// index; other mechanisms ignore it).
	PC uint64
	// BufferHit reports whether this miss was satisfied by the prefetch
	// buffer (tagged SP uses this to distinguish "first hit to a
	// prefetched entry" from a demand fetch; both trigger prefetches). It
	// is the one field that differs between the members of a sim.Group,
	// which share a mechanism instance's predictions and ask it with the
	// first member's event: a mechanism that reads it needs an instance per
	// member.
	BufferHit bool
	// EvictedVPN is the translation the TLB evicted to make room for the
	// fill, when HasEvicted is true (RP pushes it on its LRU stack).
	EvictedVPN uint64
	HasEvicted bool
}

// Action is a prefetcher's response to a miss.
type Action struct {
	// Prefetches lists the virtual pages to fetch into the prefetch
	// buffer, strongest prediction first. It is the dst slice passed to
	// OnMiss with this miss's predictions appended (nil when the call
	// appended nothing), so it aliases the caller's scratch buffer and is
	// only valid until that buffer's next use.
	Prefetches []uint64
	// StateMemOps counts memory system operations the mechanism performed
	// to maintain its own metadata (RP's LRU-stack pointer writes). These
	// are charged by the timing model in addition to the prefetch fetches
	// themselves. On-chip mechanisms report 0.
	StateMemOps int
}

// Prefetcher is a TLB prefetching mechanism.
type Prefetcher interface {
	// Name returns the mechanism's short name (e.g. "DP", "RP").
	Name() string
	// OnMiss observes one TLB miss and returns the pages to prefetch,
	// appended to dst. The simulator owns dst (a reusable scratch buffer
	// passed with length 0) so that the prediction path performs no
	// allocation in steady state; implementations must append rather than
	// retain or reallocate storage of their own. Passing nil dst is valid
	// (tests do) — append grows a fresh slice.
	OnMiss(ev Event, dst []uint64) Action
	// Reset clears all prediction state (used between runs and by the
	// multiprogramming flush study).
	Reset()
}

// HardwareInfo summarizes a mechanism's hardware cost, the rows of the
// paper's Table 1.
type HardwareInfo struct {
	Mechanism     string
	Rows          string // number of rows ("r" or "one per PTE")
	RowContents   string
	TableLocation string // "on-chip" or "in memory"
	IndexedBy     string
	StateMemOps   string // memory system operations per miss, excluding prefetches
	MaxPrefetches string
}

// HardwareDescriber is implemented by mechanisms that can report their
// Table 1 row.
type HardwareDescriber interface {
	HardwareInfo() HardwareInfo
}

// Nop is a no-op prefetcher: the no-prefetching baseline.
type Nop struct{}

// Name implements Prefetcher.
func (Nop) Name() string { return "none" }

// OnMiss implements Prefetcher.
func (Nop) OnMiss(Event, []uint64) Action { return Action{} }

// Reset implements Prefetcher.
func (Nop) Reset() {}
