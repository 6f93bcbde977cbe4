package sweep

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestResultsIndependentOfShardPartition is the property the single-mode
// sim.Group rests on: a cell's result does not depend on which other cells
// share its shard. Each case is one shard's worth of cells; seeded random
// partitions of it run part by part through the Runner, and every cell's
// Result must equal the whole-shard run's.
func TestResultsIndependentOfShardPartition(t *testing.T) {
	dp := Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}
	cases := []struct {
		name string
		grid Grid
	}{
		{"functional", Grid{
			Workloads: []string{"mcf"},
			Mechs: []Mech{{Kind: "none"}, {Kind: "SP"}, {Kind: "ASP", Rows: 64, Ways: 1},
				{Kind: "MP", Rows: 64, Ways: 1, Slots: 2}, {Kind: "RP"}, dp, {Kind: "STMS", Rows: 256, Ways: 1, Slots: 2},
				{Kind: "MASP", Rows: 64, Ways: 1, Slots: 2}, {Kind: "SBFP"}},
			TLBEntries: []int{64},
			TLBWays:    []int{0},
			Buffers:    []int{4, 16},
			PageShifts: []uint{12},
			Refs:       20_000,
			Warmup:     7_000,
		}},
		{"timed", Grid{
			Workloads:  []string{"twolf"},
			Mechs:      []Mech{{Kind: "none"}, dp, {Kind: "RP"}, {Kind: "SBFP"}},
			TLBEntries: []int{64},
			TLBWays:    []int{0},
			Buffers:    []int{16},
			PageShifts: []uint{12},
			Refs:       20_000,
			TimingAxes: TimingAxes{MissPenalties: []uint64{50, 100, 200}, RefsPerCycle: []uint64{1, 2}},
		}},
		{"mix", Grid{
			Mixes:      []Mix{{Sources: []Source{WorkloadSource("galgel"), WorkloadSource("gcc")}}},
			Mechs:      []Mech{{Kind: "none"}, dp, {Kind: "RP"}, {Kind: "SBFP"}},
			TLBEntries: []int{64},
			TLBWays:    []int{0},
			Buffers:    []int{16},
			PageShifts: []uint{12},
			Quanta:     []uint64{3_000},
			Policies:   []string{"retain", "flush", "per-process"},
			ASIDs:      []string{"flush", "tagged"},
			Refs:       20_000,
		}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs, err := c.grid.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			whole, sum, err := (&Runner{}).Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Shards != 1 {
				t.Fatalf("%d cells ran in %d shards, want one shard", len(jobs), sum.Shards)
			}
			rng := rand.New(rand.NewPCG(uint64(ci), 0x5eed))
			for trial := 0; trial < 3; trial++ {
				parts := make([][]int, 2+rng.IntN(3))
				for i := range jobs {
					p := rng.IntN(len(parts))
					parts[p] = append(parts[p], i)
				}
				for _, part := range parts {
					sub := make([]Job, len(part))
					for k, i := range part {
						sub[k] = jobs[i]
					}
					res, _, err := (&Runner{}).Run(sub)
					if err != nil {
						t.Fatal(err)
					}
					for k, i := range part {
						if !reflect.DeepEqual(res[k], whole[i]) {
							t.Fatalf("trial %d, cell %d (%s) in a %d-cell part:\n got %+v\nwant %+v",
								trial, i, jobs[i].Mech.Label(), len(part), res[k], whole[i])
						}
					}
				}
			}
		})
	}
}
