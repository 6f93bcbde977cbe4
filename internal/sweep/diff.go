package sweep

import (
	"fmt"
	"strings"

	"tlbprefetch/internal/stats"
)

// StoreDiff is a cell-by-cell comparison of two stores.
type StoreDiff struct {
	// OnlyA and OnlyB hold cells present in exactly one store, in the
	// stores' deterministic (hash-sorted) order.
	OnlyA, OnlyB []Result
	// Changed holds cells present in both under the same key hash but
	// with different payloads — possible only when one store was produced
	// by a simulator whose behaviour changed without a schema bump.
	Changed [][2]Result
}

// Empty reports whether the stores agree on every cell.
func (d StoreDiff) Empty() bool {
	return len(d.OnlyA) == 0 && len(d.OnlyB) == 0 && len(d.Changed) == 0
}

// Summary renders a human-readable account of the differences.
func (d StoreDiff) Summary() string {
	if d.Empty() {
		return "stores are identical\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d cells only in A, %d only in B, %d changed\n",
		len(d.OnlyA), len(d.OnlyB), len(d.Changed))
	cell := func(k Key) string {
		s := fmt.Sprintf("%s %s tlb=%d buf=%d refs=%d", k.SourceLabel(), k.Mech.Label(),
			k.TLBEntries, k.Buffer, k.Refs)
		if k.Mix != nil {
			s += fmt.Sprintf(" q=%d policy=%s asid=%s", k.Mix.Quantum, k.Mix.Policy, k.Mix.ASID)
		}
		if k.Timing != nil {
			s += fmt.Sprintf(" penalty=%d memop=%d", k.Timing.MissPenalty, k.Timing.MemOpLatency)
		}
		return s
	}
	describe := func(prefix string, rs []Result) {
		for _, r := range rs {
			fmt.Fprintf(&b, "  %s %s\n", prefix, cell(r.Key))
		}
	}
	describe("A", d.OnlyA)
	describe("B", d.OnlyB)
	for _, pair := range d.Changed {
		delta := fmt.Sprintf("accuracy %s vs %s",
			stats.F(pair[0].Stats.Accuracy()), stats.F(pair[1].Stats.Accuracy()))
		if pair[0].Timing != nil && pair[1].Timing != nil && pair[0].Timing.Cycles != pair[1].Timing.Cycles {
			delta = fmt.Sprintf("cycles %d vs %d", pair[0].Timing.Cycles, pair[1].Timing.Cycles)
		}
		fmt.Fprintf(&b, "  ≠ %s: %s\n", cell(pair[0].Key), delta)
	}
	return b.String()
}

// DiffStores compares two stores cell-by-cell by key hash. Payloads are
// compared on their canonical encoding, so any divergence — functional
// counters or timing counters — registers as changed. Whole segments the
// two stores' indexes address by the same content digest are skipped
// without reading either side (identical digest, identical cells), so
// diffing two mostly-equal sharded stores reads only the segments that
// actually differ.
func DiffStores(a, b *Store) (StoreDiff, error) {
	skip := sharedCleanSegments(a, b)
	var d StoreDiff
	for _, h := range a.indexHashes() {
		if skip[segPrefix(h)] {
			continue
		}
		ra, ok, err := a.Get(h)
		if err != nil {
			return d, err
		}
		if !ok {
			continue
		}
		rb, ok, err := b.Get(h)
		if err != nil {
			return d, err
		}
		if !ok {
			d.OnlyA = append(d.OnlyA, ra)
			continue
		}
		ca, err := stats.Canonical(ra)
		if err != nil {
			return d, err
		}
		cb, err := stats.Canonical(rb)
		if err != nil {
			return d, err
		}
		if string(ca) != string(cb) {
			d.Changed = append(d.Changed, [2]Result{ra, rb})
		}
	}
	for _, h := range b.indexHashes() {
		if skip[segPrefix(h)] || a.Has(h) {
			continue
		}
		rb, ok, err := b.Get(h)
		if err != nil {
			return d, err
		}
		if ok {
			d.OnlyB = append(d.OnlyB, rb)
		}
	}
	return d, nil
}

// sharedCleanSegments returns the prefixes whose on-disk segments carry
// the same content digest in both stores with no unsaved changes on either
// side — cell-for-cell identical by construction, safe to skip wholesale.
func sharedCleanSegments(a, b *Store) map[string]bool {
	da, oka := a.cleanSegmentDigests()
	db, okb := b.cleanSegmentDigests()
	if !oka || !okb {
		return nil
	}
	skip := make(map[string]bool)
	for p, dig := range da {
		if db[p] == dig {
			skip[p] = true
		}
	}
	return skip
}

// cleanSegmentDigests returns the store's per-prefix segment digests when
// they are authoritative: file-bound, nothing dirty. A store with unsaved
// changes (or no file at all) reports ok=false and diffs cell-by-cell.
func (s *Store) cleanSegmentDigests() (map[string]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" || len(s.dirty) > 0 {
		return nil, false
	}
	out := make(map[string]string, len(s.segs))
	for p, dig := range s.segs {
		out[p] = dig
	}
	return out, true
}
