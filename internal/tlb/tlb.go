// Package tlb models the Translation Lookaside Buffer and the prefetch
// buffer from the paper's Figure 1.
//
// The TLB is a set-associative (or fully associative) cache of virtual page
// numbers with true LRU replacement per set, matching the configurations the
// paper sweeps (64/128/256 entries; 2-way, 4-way, fully associative). Only
// the tags matter for the study — the translation payload (physical frame)
// has no effect on hit/miss behaviour — so entries are just VPNs.
//
// Both structures sit on the simulator's innermost loop, so they are backed
// by the O(1) engine in internal/assoc (intrusive recency lists plus an
// open-addressing index) rather than scanned slices; behaviour is
// bit-identical to the slice layout, which the randomized model tests in
// internal/assoc pin down. They count nothing the simulator's Stats
// counts: the only tally kept here is the buffer's unused-prefetch count,
// which Stats reads.
//
// The prefetch buffer is a small fully associative structure probed in
// parallel with the TLB on a miss; prefetched translations wait there and
// move into the TLB only when the program references the page, so
// prefetching can never displace useful TLB entries (paper §2: "Prefetching
// can thus not increase the miss rates of the original TLB").
package tlb

import (
	"fmt"

	"tlbprefetch/internal/assoc"
)

// Config describes a TLB geometry.
type Config struct {
	// Entries is the total number of translations the TLB holds.
	Entries int
	// Ways is the associativity; Ways == Entries (or Ways == 0, a
	// convenience default) means fully associative.
	Ways int
}

// Canonical returns the one spelling of the geometry: a fully associative
// TLB (Ways == Entries, or the Ways == 0 shorthand) has Ways 0. Two
// configurations build identical TLBs exactly when their canonical forms
// are equal.
func (c Config) Canonical() Config {
	if c.Ways == c.Entries {
		c.Ways = 0
	}
	return c
}

func (c Config) normalize() Config {
	if c.Ways == 0 {
		c.Ways = c.Entries
	}
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	c = c.normalize()
	if c.Entries <= 0 {
		return fmt.Errorf("tlb: Entries must be positive, got %d", c.Entries)
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: Entries %d not divisible by Ways %d", c.Entries, c.Ways)
	}
	return nil
}

// TLB is a set-associative translation lookaside buffer with per-set LRU.
// Construct with New.
type TLB struct {
	cfg Config
	s   *assoc.Store[struct{}]
}

// New builds a TLB. It panics on an invalid configuration (geometry is a
// programming error, not an input error, at this layer).
func New(cfg Config) *TLB {
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{cfg: cfg, s: assoc.New[struct{}](cfg.Entries, cfg.Ways)}
}

// Config returns the (normalized) geometry.
func (t *TLB) Config() Config { return t.cfg }

// Access probes the TLB for vpn. On a hit the entry is promoted to MRU and
// Access returns true. On a miss it returns false WITHOUT inserting — the
// fill happens later via Insert, after the miss has been serviced (from the
// prefetch buffer or the page table).
func (t *TLB) Access(vpn uint64) bool { return t.s.Touch(vpn) }

// Contains probes without touching recency.
func (t *TLB) Contains(vpn uint64) bool {
	return t.s.Has(vpn)
}

// Insert fills vpn as the MRU entry of its set, evicting the LRU entry if
// the set is full. It reports the evicted VPN, if any. Inserting a VPN that
// is already resident only promotes it (no eviction); that situation does
// not arise in the simulator (fills follow misses) but is handled for
// robustness.
func (t *TLB) Insert(vpn uint64) (evicted uint64, wasEvicted bool) {
	if t.s.Touch(vpn) {
		return 0, false
	}
	_, evicted, wasEvicted = t.s.InsertMRU(vpn)
	return evicted, wasEvicted
}

// Len returns the number of resident translations.
func (t *TLB) Len() int { return t.s.Len() }

// Reset empties the TLB.
func (t *TLB) Reset() { t.s.Reset() }
