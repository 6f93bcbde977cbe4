package sweep

import (
	"fmt"

	"tlbprefetch/internal/sim"
)

// DefaultTiming returns the paper's Table 3 constants — the cycle model
// of sim.DefaultTiming, whose miss penalty TimingAxes keeps when its
// penalty axis is empty. Every timing cell's key carries its constants in
// full.
func DefaultTiming() sim.Timing { return sim.DefaultTiming().Timing }

// TimingAxes declares a cycle-model design space as independent axes and
// expands it into sim.Timing points. Where sim.ScaledTiming pins the
// paper's cost structure (memory ops at half the walk, two references per
// cycle) and only moves the penalty, TimingAxes decouples the ratios
// themselves — the full Table 3 design space:
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

// Points expands the axes into validated sim.Timing points. Every point
// starts from sim.ScaledTiming at its penalty (buffer-hit and occupancy
// costs keep their walk fractions); an absolute memory-op latency then
// overrides the cost directly (clamping occupancy so the channel is never
// blocked longer than an operation takes), while a ratio derives it from
// the penalty and re-derives the occupancy at the default pipelining ratio.
func (a TimingAxes) Points() ([]sim.Timing, error) {
	if len(a.MemOpLatencies) > 0 && len(a.MemOpRatios) > 0 {
		return nil, fmt.Errorf("sweep: memory-op cost declared both as absolute latencies and as penalty ratios — pick one axis")
	}
	def := DefaultTiming()
	penalties := a.MissPenalties
	if len(penalties) == 0 {
		penalties = []uint64{def.MissPenalty}
	}
	var out []sim.Timing
	for _, p := range penalties {
		if p > sim.MaxTimingCycles {
			return nil, fmt.Errorf("sweep: miss penalty %d exceeds %d cycles", p, uint64(sim.MaxTimingCycles))
		}
		base := sim.ScaledTiming(p).Timing
		memops := []sim.Timing{base}
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
				if !(lat <= sim.MaxTimingCycles) {
					return nil, fmt.Errorf("sweep: memory-op ratio %g of miss penalty %d exceeds %d cycles", r, p, uint64(sim.MaxTimingCycles))
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
