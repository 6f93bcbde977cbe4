package sweep

import (
	"fmt"

	"tlbprefetch/internal/sim"
)

// Timing is the cycle-model axis of a cell: sim.TimingConfig's constants
// lifted into the content-addressed Key, so latency-sensitivity sweeps
// (different miss penalties, memory-op costs, issue widths) address
// distinct cells instead of all pinning the package default. A nil *Timing
// on a Job means the functional simulator; a non-nil one selects the cycle
// model with exactly these constants.
type Timing struct {
	MissPenalty      uint64 `json:"miss_penalty"`
	BufferHitPenalty uint64 `json:"buffer_hit_penalty"`
	MemOpLatency     uint64 `json:"memop_latency"`
	MemOpOccupancy   uint64 `json:"memop_occupancy"`
	CyclesPerRef     uint64 `json:"cycles_per_ref"`
	RefsPerCycle     uint64 `json:"refs_per_cycle"`
	RPSkipWhenBusy   bool   `json:"rp_skip_when_busy"`
}

// DefaultTiming returns the paper's Table 3 constants — the axes of
// sim.DefaultTiming, which v1 stores implicitly pinned on every timing
// cell.
func DefaultTiming() Timing { return TimingOf(sim.DefaultTiming()) }

// TimingOf lifts a sim.TimingConfig's constants into the key axis
// (dropping the embedded functional Config, which the Key carries in its
// own fields).
func TimingOf(tc sim.TimingConfig) Timing {
	return Timing{
		MissPenalty:      tc.MissPenalty,
		BufferHitPenalty: tc.BufferHitPenalty,
		MemOpLatency:     tc.MemOpLatency,
		MemOpOccupancy:   tc.MemOpOccupancy,
		CyclesPerRef:     tc.CyclesPerRef,
		RefsPerCycle:     tc.RefsPerCycle,
		RPSkipWhenBusy:   tc.RPSkipWhenBusy,
	}
}

// ScaledTiming lifts sim.ScaledTiming's recalibrated cycle model — the
// default constants scaled to a different miss penalty, walk-fraction
// costs keeping their ratios — into a key axis, so tlbsweep, tlbsim and
// the table3-lat experiment all mean the same cell by the same nominal
// penalty.
func ScaledTiming(missPenalty uint64) Timing {
	return TimingOf(sim.ScaledTiming(missPenalty))
}

// TimingAxes declares a cycle-model design space as independent axes and
// expands it into Timing points. Where ScaledTiming pins the paper's cost
// structure (memory ops at half the walk, two references per cycle) and
// only moves the penalty, TimingAxes decouples the ratios themselves — the
// full Table 3 design space:
//
//   - MissPenalties is the TLB miss cost axis (empty: the paper's default
//     penalty only).
//   - MemOpLatencies (absolute cycles) or MemOpRatios (fractions of the
//     miss penalty; the paper's point is 0.5) set the prefetch memory-op
//     cost. Setting both is an error; setting neither keeps the scaled
//     default at every penalty.
//   - RefsPerCycle is the issue-width axis (empty: the scaled default's
//     width).
//
// Points enumerates the cross product penalty-outermost, then memory-op
// cost, then issue width — the deterministic order Grid.Jobs and the
// table3-space experiment rely on.
type TimingAxes struct {
	MissPenalties  []uint64
	MemOpLatencies []uint64
	MemOpRatios    []float64
	RefsPerCycle   []uint64
}

// Empty reports whether no axis is declared (the zero value).
func (a TimingAxes) Empty() bool {
	return len(a.MissPenalties) == 0 && len(a.MemOpLatencies) == 0 &&
		len(a.MemOpRatios) == 0 && len(a.RefsPerCycle) == 0
}

// Points expands the axes into validated Timing points. Every point starts
// from ScaledTiming at its penalty (buffer-hit and occupancy costs keep
// their walk fractions); an absolute memory-op latency then overrides the
// cost directly (clamping occupancy so the channel is never blocked longer
// than an operation takes), while a ratio derives it from the penalty and
// re-derives the occupancy at the default pipelining ratio.
func (a TimingAxes) Points() ([]Timing, error) {
	if len(a.MemOpLatencies) > 0 && len(a.MemOpRatios) > 0 {
		return nil, fmt.Errorf("sweep: memory-op cost declared both as absolute latencies and as penalty ratios — pick one axis")
	}
	def := DefaultTiming()
	penalties := a.MissPenalties
	if len(penalties) == 0 {
		penalties = []uint64{def.MissPenalty}
	}
	var out []Timing
	for _, p := range penalties {
		if p > maxTimingCycles {
			return nil, fmt.Errorf("sweep: miss penalty %d exceeds %d cycles", p, uint64(maxTimingCycles))
		}
		base := ScaledTiming(p)
		memops := []Timing{base}
		switch {
		case len(a.MemOpLatencies) > 0:
			memops = memops[:0]
			for _, l := range a.MemOpLatencies {
				t := base
				t.MemOpLatency = l
				// An explicit latency below the scaled occupancy means the
				// channel is fully serialized at that latency.
				if t.MemOpOccupancy > t.MemOpLatency {
					t.MemOpOccupancy = t.MemOpLatency
				}
				memops = append(memops, t)
			}
		case len(a.MemOpRatios) > 0:
			memops = memops[:0]
			for _, r := range a.MemOpRatios {
				t := base
				lat := float64(p)*r + 0.5
				if !(lat <= maxTimingCycles) {
					return nil, fmt.Errorf("sweep: memory-op ratio %g of miss penalty %d exceeds %d cycles", r, p, uint64(maxTimingCycles))
				}
				t.MemOpLatency = uint64(lat)
				if t.MemOpLatency == 0 {
					t.MemOpLatency = 1
				}
				t.MemOpOccupancy = t.MemOpLatency * def.MemOpOccupancy / def.MemOpLatency
				if t.MemOpOccupancy == 0 {
					t.MemOpOccupancy = 1
				}
				memops = append(memops, t)
			}
		}
		rpcs := a.RefsPerCycle
		if len(rpcs) == 0 {
			rpcs = []uint64{base.RefsPerCycle}
		}
		for _, m := range memops {
			for _, rpc := range rpcs {
				t := m
				t.RefsPerCycle = rpc
				if err := t.Validate(); err != nil {
					return nil, err
				}
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// Config lowers the axis back onto a functional configuration, producing
// the sim.TimingConfig the cell's simulator is built from.
func (t Timing) Config(c sim.Config) sim.TimingConfig {
	return sim.TimingConfig{
		Config:           c,
		MissPenalty:      t.MissPenalty,
		BufferHitPenalty: t.BufferHitPenalty,
		MemOpLatency:     t.MemOpLatency,
		MemOpOccupancy:   t.MemOpOccupancy,
		CyclesPerRef:     t.CyclesPerRef,
		RefsPerCycle:     t.RefsPerCycle,
		RPSkipWhenBusy:   t.RPSkipWhenBusy,
	}
}

// Normalize canonicalizes the equivalent spellings sim.TimingConfig
// accepts — RefsPerCycle 0 means 1, MemOpOccupancy 0 means fully
// serialized (= MemOpLatency) — so identical cycle models always
// content-address to the same cell, mirroring canonicalTLBWays for the
// TLB geometry.
func (t Timing) Normalize() Timing {
	if t.RefsPerCycle == 0 {
		t.RefsPerCycle = 1
	}
	if t.MemOpOccupancy == 0 {
		t.MemOpOccupancy = t.MemOpLatency
	}
	return t
}

// maxTimingCycles bounds the miss penalty and memory-op latency a cell may
// declare. Far above any modelled machine, it keeps the scaled costs and
// the ratio-derived latencies clear of uint64 wrap-around, so every cell
// key is the same on every platform.
const maxTimingCycles = 1 << 32

// Validate reports whether the constants form a usable cycle model.
func (t Timing) Validate() error {
	if t.MissPenalty > maxTimingCycles || t.MemOpLatency > maxTimingCycles {
		return fmt.Errorf("sweep: miss penalty %d or memory-op latency %d exceeds %d cycles",
			t.MissPenalty, t.MemOpLatency, uint64(maxTimingCycles))
	}
	if t.MissPenalty == 0 || t.MemOpLatency == 0 || t.CyclesPerRef == 0 {
		return fmt.Errorf("sweep: timing constants must be positive (penalty=%d, memop=%d, perRef=%d)",
			t.MissPenalty, t.MemOpLatency, t.CyclesPerRef)
	}
	if n := t.Normalize(); n.MemOpOccupancy > n.MemOpLatency {
		return fmt.Errorf("sweep: MemOpOccupancy %d exceeds MemOpLatency %d (an operation cannot block the channel longer than it takes)",
			n.MemOpOccupancy, n.MemOpLatency)
	}
	return nil
}
