package sim

import (
	"fmt"

	"tlbprefetch/internal/memsys"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
)

// Timing is the cycle model of the paper's Table 3 experiment: the
// constants a TimingSimulator charges on top of the functional pipeline. It
// is declared once, here; the sweep key carries it as a cell's cycle-model
// axis, so its field order and JSON tags are part of every key hash.
type Timing struct {
	// MissPenalty is the constant TLB miss cost for a demand fetch
	// (paper: 100 cycles).
	MissPenalty uint64 `json:"miss_penalty"`
	// BufferHitPenalty is the portion of the miss cost a prefetch-buffer
	// hit still pays — the pipeline restart and TLB fill, everything but
	// the page table walk. The paper's Table 3 deltas (DP saves 1-14%
	// despite 0.5-0.9 accuracy) imply a substantial residual cost per
	// satisfied miss; 65 cycles lands the no-prefetch -> DP deltas in the
	// published band.
	BufferHitPenalty uint64 `json:"buffer_hit_penalty"`
	// MemOpLatency is the cost of each prefetch-related memory operation —
	// pointer manipulation or prefetch fetch (paper: 50 cycles).
	MemOpLatency uint64 `json:"memop_latency"`
	// MemOpOccupancy is how long each operation blocks the prefetch
	// channel before the next may start. 0 means fully serialized
	// (= MemOpLatency, one outstanding request); smaller values model the
	// pipelined memory interface of an out-of-order core.
	MemOpOccupancy uint64 `json:"memop_occupancy"`
	// CyclesPerRef is the base cost of a reference with a TLB hit, and
	// RefsPerCycle lets several references retire per cycle (0 means 1).
	// The paper runs a 4-issue out-of-order core, which both overlaps
	// instruction work (RefsPerCycle > 1) and pipelines its memory
	// interface (MemOpOccupancy < MemOpLatency); the Table 3 calibration
	// in experiments.Table3 picks the values that land the no-prefetch
	// baseline and the RP/DP deltas in the published band.
	CyclesPerRef uint64 `json:"cycles_per_ref"`
	RefsPerCycle uint64 `json:"refs_per_cycle"`
	// RPSkipWhenBusy enables the paper's benefit-of-the-doubt rule for RP:
	// when the prefetch channel is still busy at miss time, RP performs
	// only its stack update (4 pointer ops) and skips the two neighbour
	// fetches. Mechanisms other than RP are unaffected.
	RPSkipWhenBusy bool `json:"rp_skip_when_busy"`
}

// TimingConfig extends Config with the cycle model.
type TimingConfig struct {
	Config
	Timing
}

// DefaultTiming returns the paper's Table 3 constants on top of the default
// functional configuration.
func DefaultTiming() TimingConfig {
	return TimingConfig{
		Config: Default(),
		Timing: Timing{
			MissPenalty:      100,
			BufferHitPenalty: 65,
			MemOpLatency:     50,
			MemOpOccupancy:   12,
			CyclesPerRef:     1,
			RefsPerCycle:     2,
			RPSkipWhenBusy:   true,
		},
	}
}

// ScaledTiming returns the default cycle model re-calibrated to a
// different TLB miss penalty, scaling the costs defined as fractions of a
// page-table walk: the prefetch memory-op latency keeps the paper's 1:2
// ratio, the buffer-hit residual its 65%, and the channel occupancy its
// pipelining ratio — so a satisfied miss stays cheaper than an
// unmitigated one at every point of a latency-sensitivity axis, and
// tlbsweep, tlbsim and the table3-lat experiment all mean the same cycle
// model by the same nominal penalty.
func ScaledTiming(missPenalty uint64) TimingConfig {
	c := DefaultTiming()
	ref := c.MissPenalty
	c.MissPenalty = missPenalty
	c.MemOpLatency = missPenalty * c.MemOpLatency / ref
	c.BufferHitPenalty = missPenalty * c.BufferHitPenalty / ref
	c.MemOpOccupancy = missPenalty * c.MemOpOccupancy / ref
	if c.MemOpLatency == 0 {
		c.MemOpLatency = 1
	}
	if c.MemOpOccupancy == 0 {
		c.MemOpOccupancy = 1
	}
	return c
}

// Config attaches the cycle model to a functional configuration.
func (t Timing) Config(c Config) TimingConfig { return TimingConfig{Config: c, Timing: t} }

// Normalize canonicalizes the equivalent spellings the cycle model
// accepts — RefsPerCycle 0 means 1, MemOpOccupancy 0 means fully
// serialized (= MemOpLatency) — so identical cycle models always
// content-address to the same sweep cell and build the same clock.
func (t Timing) Normalize() Timing {
	if t.RefsPerCycle == 0 {
		t.RefsPerCycle = 1
	}
	if t.MemOpOccupancy == 0 {
		t.MemOpOccupancy = t.MemOpLatency
	}
	return t
}

// MaxTimingCycles bounds the miss penalty and memory-op latency a cycle
// model may declare. Far above any modelled machine, it keeps scaled costs
// and ratio-derived latencies clear of uint64 wrap-around, so every sweep
// key is the same on every platform.
const MaxTimingCycles = 1 << 32

// Validate reports whether the constants form a usable cycle model.
func (t Timing) Validate() error {
	if t.MissPenalty > MaxTimingCycles || t.MemOpLatency > MaxTimingCycles {
		return fmt.Errorf("sim: miss penalty %d or memory-op latency %d exceeds %d cycles",
			t.MissPenalty, t.MemOpLatency, uint64(MaxTimingCycles))
	}
	if t.MissPenalty == 0 || t.MemOpLatency == 0 || t.CyclesPerRef == 0 {
		return fmt.Errorf("sim: timing constants must be positive (penalty=%d, memop=%d, perRef=%d)",
			t.MissPenalty, t.MemOpLatency, t.CyclesPerRef)
	}
	if n := t.Normalize(); n.MemOpOccupancy > n.MemOpLatency {
		return fmt.Errorf("sim: MemOpOccupancy %d exceeds MemOpLatency %d (an operation cannot block the channel longer than it takes)",
			n.MemOpOccupancy, n.MemOpLatency)
	}
	return nil
}

// Validate reports whether the configuration is usable.
func (c TimingConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	return c.Timing.Validate()
}

// TimingStats extends Stats with cycle accounting.
type TimingStats struct {
	Stats
	Cycles       uint64 // total execution cycles
	StallCycles  uint64 // cycles stalled on TLB misses (demand + in-flight waits)
	InFlightHits uint64 // buffer hits that had to wait for the prefetch to land
	SkippedPref  uint64 // prefetch batches skipped by the RP busy rule
}

// CPI returns cycles per reference.
func (s TimingStats) CPI() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Refs)
}

// TimingSimulator is a Simulator with the cycle model attached as its
// back half: the same TLB, prefetch buffer and mechanism, plus a clock. The
// prefetch channel serializes metadata and prefetch operations; demand
// fetches cost the fixed miss penalty and do not contend with prefetch
// traffic (the paper's RP-favouring assumption). The embedded Simulator can
// join a Group like any functional member.
type TimingSimulator struct {
	*Simulator
}

// NewTiming builds a timing simulator. A nil mechanism is the
// no-prefetching baseline.
func NewTiming(cfg TimingConfig, pf prefetch.Prefetcher) *TimingSimulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := New(cfg.Config, pf)
	s.clk = newClock(cfg.Timing, s.pf.Name() == "RP")
	return &TimingSimulator{s}
}

// Stats returns a snapshot including the cycle counters. As in the
// functional simulator, PrefetchesUnused includes the entries still
// resident (never used) in the buffer at snapshot time, and every counter,
// Cycles included, covers the window since the last ResetStats.
func (s *TimingSimulator) Stats() TimingStats {
	st := s.clk.stat
	st.Stats = s.Simulator.Stats()
	st.Cycles = s.Now() - s.clk.base
	return st
}

// Now returns the current cycle.
func (s *TimingSimulator) Now() uint64 {
	s.clk.advance(s.stat.Refs)
	return s.clk.now
}

// clock is the cycle model, the optional back half of a Simulator (nil
// means functional). TLB hits cost it nothing: every reference's base cost
// is charged arithmetically from the reference count when the clock is next
// read — at a miss, or by Now and Stats — which is bit-identical to
// charging CyclesPerRef every RefsPerCycle references as they retire.
type clock struct {
	cfg  Timing // normalized
	isRP bool
	ch   *memsys.Channel

	now      uint64
	refAccum uint64 // references since the last base-cycle charge
	synced   uint64 // Stats.Refs value now has been charged up to
	base     uint64 // cycle at which the statistics window began

	stat     TimingStats // StallCycles, InFlightHits and SkippedPref only
	issuable []uint64    // the prefetches of one batch not already resident
	ready    []uint64    // completion cycles of one prefetch batch
}

func newClock(t Timing, isRP bool) *clock {
	t = t.Normalize()
	return &clock{
		cfg:  t,
		isRP: isRP,
		ch:   memsys.NewPipelinedChannel(t.MemOpLatency, t.MemOpOccupancy),
	}
}

// advance charges the base cost of the references retired since the last
// call; refs is the simulator's current reference count.
func (c *clock) advance(refs uint64) {
	t := c.refAccum + (refs - c.synced)
	c.now += t / c.cfg.RefsPerCycle * c.cfg.CyclesPerRef
	c.refAccum = t % c.cfg.RefsPerCycle
	c.synced = refs
}

// beginWindow starts a new statistics window at reference count refs,
// about to be cleared to zero: the clock keeps running, only its counters
// restart.
func (c *clock) beginWindow(refs uint64) {
	c.advance(refs)
	c.synced = 0
	c.base = c.now
	c.stat = TimingStats{}
}

// timedIssue is the cycle-model back half of one miss, run after the
// mechanism has answered: it stalls the clock for the miss, applies RP's
// skip rule and issues the prefetch batch through the channel.
//
// It is also the one place the two models differ: the functional path
// checks each prefetch for a duplicate at the moment it is inserted, while
// here issuability is decided once for the whole batch, before any insert.
// An insertion may evict a buffer entry that a later prefetch in the batch
// duplicates, and that later prefetch must still be treated as the
// duplicate it was at issue time. On a full buffer the two rules count
// such a batch differently (TestDuplicateRuleDiffers).
func (s *Simulator) timedIssue(t *tlb.TLB, prefetches []uint64, stateOps int, readyAt uint64, bufferHit bool) {
	c := s.clk
	c.advance(s.stat.Refs)
	// A buffer hit stalls for whichever is longer: the in-flight wait until
	// the prefetch actually arrives ("it is made to stall until the entry
	// arrives"), or the residual fill/restart cost — the two overlap in the
	// pipeline, so the hit pays their maximum.
	stall := c.cfg.MissPenalty
	if bufferHit {
		stall = c.cfg.BufferHitPenalty
		if readyAt > c.now && readyAt-c.now > stall {
			stall = readyAt - c.now
			c.stat.InFlightHits++
		}
	}
	c.stat.StallCycles += stall
	c.now += stall

	// RP's skip rule: when earlier prefetch traffic is still in flight,
	// update the stack but do not fetch the neighbours ("there would be
	// only 4 memory transactions instead of 6").
	if c.isRP && c.cfg.RPSkipWhenBusy && len(prefetches) > 0 && c.ch.Busy(c.now) {
		prefetches = nil
		c.stat.SkippedPref++
	}

	// Filter the issuable prefetches into the clock's own scratch (the batch
	// may be shared with other Group members, see Group), then charge the
	// metadata operations to the channel first (RP updates the stack before
	// prefetching) and let the fetches complete one by one behind them.
	s.stat.PrefetchesRequested += uint64(len(prefetches))
	c.issuable = c.issuable[:0]
	for _, p := range prefetches {
		if !t.Contains(p) && !s.buf.Contains(p) {
			c.issuable = append(c.issuable, p)
		}
	}
	s.stat.PrefetchDuplicates += uint64(len(prefetches) - len(c.issuable))
	s.stat.PrefetchesIssued += uint64(len(c.issuable))
	c.ready = c.ch.IssueEach(c.ready[:0], c.ch.Issue(c.now, stateOps), len(c.issuable))
	for i, p := range c.issuable {
		s.buf.Insert(p, c.ready[i])
	}
}
