// Package sim wires the pieces of the paper's Figure 1 together: the CPU's
// reference stream feeds a TLB probed in parallel with a prefetch buffer;
// every TLB miss is reported to the attached prefetching mechanism, whose
// predictions are fetched into the buffer.
//
// The pipeline exists once, in Simulator. One reference loop (frontend)
// serves Ref, RefBatch and Group alike, over one front: the TLB and the
// count of references delivered through it, which a lone simulator holds
// for itself and a Group's members share. Stats is the one record of the
// pipeline's events: the TLB, the buffer and the memory channel keep no
// counters of their own. On its own Simulator is the functional model
// behind the prediction-accuracy results (Figures 7-9, Table 2): it counts
// events but not cycles, like the paper's sim-cache runs. A mechanism sees
// only the miss stream, so the members of a Group built around one
// mechanism instance share its predictions: it is asked once per miss, and
// each member probes its own buffer and issues the answer itself.
// TimingSimulator attaches the cycle model of the paper's Table 3
// experiment (sim-outorder runs) as an optional back half of the same
// miss path: TLB miss penalty, prefetch-channel contention and in-flight
// prefetch stalls. The page shift sets the granularity, so the same
// pipeline also models a prefetching data cache (PageShift 6, §4).
package sim

import (
	"fmt"
	"io"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
)

// Config parameterizes a simulation.
type Config struct {
	// TLB geometry. The paper's default: 128 entries, fully associative.
	TLB tlb.Config
	// BufferEntries is the prefetch buffer size b (paper default 16).
	BufferEntries int
	// PageShift is log2 of the page size (paper default 12, 4 KB pages).
	PageShift uint
}

// Default returns the paper's baseline configuration: 128-entry fully
// associative TLB, 16-entry prefetch buffer, 4 KB pages.
func Default() Config {
	return Config{
		TLB:           tlb.Config{Entries: 128},
		BufferEntries: 16,
		PageShift:     12,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.TLB.Validate(); err != nil {
		return err
	}
	if c.BufferEntries <= 0 {
		return fmt.Errorf("sim: BufferEntries must be positive, got %d", c.BufferEntries)
	}
	if c.PageShift == 0 || c.PageShift > 30 {
		return fmt.Errorf("sim: PageShift %d out of range (1..30)", c.PageShift)
	}
	return nil
}

// Stats aggregates the functional counters of one run.
type Stats struct {
	Refs   uint64 // references simulated
	Misses uint64 // TLB misses (the denominator of prediction accuracy)

	BufferHits    uint64 // misses satisfied by the prefetch buffer (numerator)
	DemandFetches uint64 // misses that went to the page table

	PrefetchesRequested uint64 // pages the mechanism asked to prefetch
	PrefetchesIssued    uint64 // actually fetched (not already in TLB/buffer)
	PrefetchDuplicates  uint64 // dropped: already resident in TLB or buffer
	// PrefetchesUnused counts prefetches that never served a miss: those
	// evicted from the buffer before any use, plus those still sitting
	// unused in the buffer at snapshot time (every resident entry is
	// unused by definition — a use removes it).
	PrefetchesUnused uint64

	StateMemOps uint64 // mechanism metadata memory ops (RP pointers)
}

// Accuracy returns the paper's metric: the fraction of TLB misses that hit
// in the prefetch buffer.
func (s Stats) Accuracy() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.BufferHits) / float64(s.Misses)
}

// MissRate returns misses per reference (the paper's m_i weights).
func (s Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// MemOps returns the total extra memory traffic induced by prefetching:
// metadata maintenance plus prefetch fetches.
func (s Stats) MemOps() uint64 { return s.StateMemOps + s.PrefetchesIssued }

// front is the Figure 1 frontend: the TLB every reference probes and the
// number of references delivered through it. A lone Simulator holds its
// own; a Group's members share the first member's (see Group.Add). The TLB
// is built when the simulator first runs alone or becomes a group's first
// member, so a nil TLB marks a simulator that never did either.
type front struct {
	tlb  *tlb.TLB
	refs uint64
}

// Simulator is the functional TLB + prefetch-buffer + mechanism pipeline.
type Simulator struct {
	cfg   Config
	front *front
	buf   *tlb.PrefetchBuffer
	pf    prefetch.Prefetcher
	stat  Stats // every counter but Refs, which Stats derives from the front

	// refBase is the front's reference count at the last ResetStats.
	refBase uint64

	// scratch is the reusable prediction buffer handed to the mechanism on
	// every miss (see prefetch.Prefetcher.OnMiss); it grows to the largest
	// prediction batch once and is never reallocated afterwards, keeping
	// the per-reference path allocation-free.
	scratch []uint64

	// clk is the cycle model (see NewTiming); nil means functional.
	clk *clock
}

// New builds a simulator around the given mechanism. A nil mechanism means
// no prefetching (the baseline). It panics on invalid configuration.
func New(cfg Config, pf prefetch.Prefetcher) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if pf == nil {
		pf = prefetch.Nop{}
	}
	return &Simulator{
		cfg:   cfg,
		front: &front{},
		buf:   tlb.NewPrefetchBuffer(cfg.BufferEntries),
		pf:    pf,
	}
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Prefetcher returns the attached mechanism.
func (s *Simulator) Prefetcher() prefetch.Prefetcher { return s.pf }

// Ref simulates one memory reference: RefBatch over a one-reference chunk.
func (s *Simulator) Ref(pc, vaddr uint64) {
	s.RefBatch([]trace.Ref{{PC: pc, VAddr: vaddr}})
}

// probe counts one miss and probes the prefetch buffer for it; a hit
// migrates the entry into the TLB. Every other miss is a demand fetch,
// which Stats derives.
func (s *Simulator) probe(vpn uint64) (readyAt uint64, bufferHit bool) {
	s.stat.Misses++
	readyAt, bufferHit = s.buf.TakeOut(vpn)
	if bufferHit {
		s.stat.BufferHits++
	}
	return readyAt, bufferHit
}

// issue fetches a miss's predictions into the buffer. With a clock
// attached, the issue step is the cycle model's (timedIssue). It only reads
// act, which the members sharing a mechanism instance all issue.
func (s *Simulator) issue(act prefetch.Action, readyAt uint64, bufferHit bool) {
	s.stat.StateMemOps += uint64(act.StateMemOps)
	if s.clk != nil {
		s.timedIssue(act.Prefetches, act.StateMemOps, readyAt, bufferHit)
		return
	}
	for _, p := range act.Prefetches {
		s.stat.PrefetchesRequested++
		if s.front.tlb.Contains(p) || s.buf.Contains(p) {
			s.stat.PrefetchDuplicates++
			continue
		}
		s.buf.Insert(p, 0)
		s.stat.PrefetchesIssued++
	}
}

// SwapPrefetcher replaces the attached mechanism without touching TLB,
// buffer or counters — the multiprogramming per-process policy's context
// switch, where each process's prediction tables are saved and restored
// around one shared pipeline. A nil mechanism installs the no-prefetching
// baseline. A member that shares its mechanism instance within a Group
// must not swap it: the members sharing it would go on issuing the
// predictions of whichever instance their first member holds.
func (s *Simulator) SwapPrefetcher(pf prefetch.Prefetcher) {
	if pf == nil {
		pf = prefetch.Nop{}
	}
	s.pf = pf
}

// RefBatch simulates a chunk of references through the pipeline's one
// reference loop, with the simulator as its own frontend.
func (s *Simulator) RefBatch(refs []trace.Ref) {
	if s.front.tlb == nil {
		s.front.tlb = tlb.New(s.cfg.TLB)
	}
	frontend(s.front, s.cfg.PageShift, refs, [][]*Simulator{{s}})
}

// frontend is the pipeline's one reference loop, behind Ref, RefBatch and
// Group.RefBatch: each reference probes f's TLB once, and each miss fills
// it and runs every member's back half against it (probe the buffer, ask
// the mechanism, issue), checking duplicate residency against the same
// TLB. Each unit is the members built around one mechanism instance, which
// only the first of them asks (see Group); a lone simulator is a unit of
// one. f counts the references it delivers, stored at each miss (a timed
// member's clock reads it there) and at the end of the chunk; a TLB hit
// touches no member.
func frontend(f *front, shift uint, refs []trace.Ref, units [][]*Simulator) {
	t, base := f.tlb, f.refs
	for i := range refs {
		vpn := refs[i].VAddr >> shift
		if t.Access(vpn) {
			continue
		}
		f.refs = base + uint64(i) + 1
		evicted, hasEvicted := t.Insert(vpn)
		for _, u := range units {
			var act prefetch.Action
			for j, m := range u {
				readyAt, bufferHit := m.probe(vpn)
				if j == 0 {
					act = m.pf.OnMiss(prefetch.Event{
						VPN:        vpn,
						PC:         refs[i].PC,
						BufferHit:  bufferHit,
						EvictedVPN: evicted,
						HasEvicted: hasEvicted,
					}, m.scratch[:0])
					if cap(act.Prefetches) > cap(m.scratch) {
						m.scratch = act.Prefetches
					}
				}
				m.issue(act, readyAt, bufferHit)
			}
		}
	}
	f.refs = base + uint64(len(refs))
}

// RunBatch drains a batch reader through the simulator in cache-sized
// chunks (trace.BatchSize): a trace file, a workload.Stream or an
// in-memory slice alike.
func (s *Simulator) RunBatch(src trace.BatchReader) error {
	var buf [trace.BatchSize]trace.Ref
	for {
		n, err := src.ReadBatch(buf[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		s.RefBatch(buf[:n])
	}
}

// Stats returns a snapshot of the counters, with the unused-prefetch count
// finalized from the buffer: evicted-unused plus the entries still
// resident (and therefore never used) at snapshot time. The count covers
// the current statistics window — prefetches issued before a ResetStats
// are excluded, matching the other counters.
func (s *Simulator) Stats() Stats {
	st := s.stat
	st.Refs = s.front.refs - s.refBase
	st.DemandFetches = st.Misses - st.BufferHits
	st.PrefetchesUnused = s.buf.UnusedInEpoch()
	return st
}

// TLB exposes the TLB the simulator's references probe: its own, or its
// Group's, shared by every member. It is nil until the simulator first runs
// alone or joins a Group.
func (s *Simulator) TLB() *tlb.TLB { return s.front.tlb }

// Buffer exposes the prefetch buffer (tests).
func (s *Simulator) Buffer() *tlb.PrefetchBuffer { return s.buf }

// ResetStats clears the counters while keeping all simulation state (TLB,
// buffer, mechanism tables) warm — used to measure steady-state behaviour
// after a warmup period, the counterpart of the paper's 2B-instruction
// fast-forward. The buffer starts a new statistics epoch so warmup-era
// prefetches do not leak into the measurement window's unused count. A
// timing simulator's clock keeps running; its cycle counters restart.
func (s *Simulator) ResetStats() {
	if s.clk != nil {
		s.clk.beginWindow(s.front.refs)
	}
	s.stat = Stats{}
	s.refBase = s.front.refs
	s.buf.BeginEpoch()
}
