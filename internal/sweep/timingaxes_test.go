package sweep

import (
	"strings"
	"testing"
)

func TestTimingAxesDefaults(t *testing.T) {
	// The zero value is empty; a single default-penalty axis reproduces
	// the paper's point exactly.
	if !(TimingAxes{}).Empty() {
		t.Error("zero TimingAxes should be empty")
	}
	pts, err := TimingAxes{MissPenalties: []uint64{DefaultTiming().MissPenalty}}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0] != DefaultTiming() {
		t.Errorf("default-penalty axis = %+v, want the default timing point", pts)
	}
}

func TestTimingAxesRatioDerivation(t *testing.T) {
	pts, err := TimingAxes{
		MissPenalties: []uint64{200},
		MemOpRatios:   []float64{0.25, 0.5, 1},
	}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	def := DefaultTiming()
	for i, wantMemop := range []uint64{50, 100, 200} {
		if pts[i].MemOpLatency != wantMemop {
			t.Errorf("ratio point %d memop = %d, want %d", i, pts[i].MemOpLatency, wantMemop)
		}
		// Occupancy keeps the default pipelining ratio to the memop cost.
		wantOcc := wantMemop * def.MemOpOccupancy / def.MemOpLatency
		if pts[i].MemOpOccupancy != wantOcc {
			t.Errorf("ratio point %d occupancy = %d, want %d", i, pts[i].MemOpOccupancy, wantOcc)
		}
		// The walk-fraction costs still scale with the penalty.
		if pts[i].BufferHitPenalty != 130 {
			t.Errorf("ratio point %d buffer-hit penalty = %d, want 130", i, pts[i].BufferHitPenalty)
		}
	}
}

func TestTimingAxesAbsoluteLatencyClampsOccupancy(t *testing.T) {
	pts, err := TimingAxes{
		MissPenalties:  []uint64{100},
		MemOpLatencies: []uint64{5},
	}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MemOpLatency != 5 || pts[0].MemOpOccupancy != 5 {
		t.Errorf("tiny latency point = %+v, want fully serialized at 5", pts[0])
	}
}

func TestTimingAxesConflict(t *testing.T) {
	_, err := TimingAxes{
		MemOpLatencies: []uint64{50},
		MemOpRatios:    []float64{0.5},
	}.Points()
	if err == nil || !strings.Contains(err.Error(), "pick one axis") {
		t.Fatalf("latency+ratio conflict not reported: %v", err)
	}
}

func TestGridTimingAxesExpansion(t *testing.T) {
	base := Grid{
		Workloads: []string{"swim"},
		Mechs:     []Mech{{Kind: "RP"}},
		Refs:      1000,
	}

	// TimingAxes expands into the timing axis: one cell per point, in
	// Points order.
	axes := TimingAxes{MissPenalties: []uint64{100, 200}, RefsPerCycle: []uint64{1, 2}}
	viaAxes := base
	viaAxes.TimingAxes = axes
	pts, err := axes.Points()
	if err != nil {
		t.Fatal(err)
	}

	ja, err := viaAxes.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ja) != 4 || len(ja) != len(pts) {
		t.Fatalf("axes grid has %d cells, %d points, want 4", len(ja), len(pts))
	}
	for i := range ja {
		if ja[i].Timing == nil || *ja[i].Timing != pts[i] {
			t.Errorf("cell %d: timing %+v, want point %+v", i, ja[i].Timing, pts[i])
		}
	}
}

// TestTimingAxesRejectOverflow pins that axes whose cycle counts would
// wrap uint64 (or hit Go's implementation-defined float-to-uint
// conversion) are rejected instead of producing platform-dependent cells.
func TestTimingAxesRejectOverflow(t *testing.T) {
	for name, axes := range map[string]TimingAxes{
		"huge ratio":   {MemOpRatios: []float64{1e30}},
		"huge penalty": {MissPenalties: []uint64{18446744073709551615}},
		"huge latency": {MemOpLatencies: []uint64{1<<32 + 1}},
	} {
		pts, err := axes.Points()
		if err == nil || !strings.Contains(err.Error(), "exceeds 4294967296 cycles") || pts != nil {
			t.Errorf("%s: Points() = %v, %v; want no points and an overflow error", name, pts, err)
		}
	}
	// The bound itself is a valid penalty.
	if _, err := (TimingAxes{MissPenalties: []uint64{1 << 32}}).Points(); err != nil {
		t.Errorf("penalty at the bound rejected: %v", err)
	}
}
