package sweep

import (
	"path/filepath"
	"testing"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/tlb"
)

// TestShardPartition pins how single-source cells coalesce: two cells that
// differ in one axis share a shard exactly when that axis lives in the
// per-member back half (mechanism, buffer, cycle-model constants) or is
// another spelling of the same TLB frontend, and split when it changes the
// reference stream or the frontend geometry.
func TestShardPartition(t *testing.T) {
	src := recordTrace(t, filepath.Join(t.TempDir(), "mcf.trc"), "mcf", 4_000)
	fast := DefaultTiming()
	slow := DefaultTiming()
	slow.MissPenalty = 200
	base := Job{
		Source: WorkloadSource("mcf"),
		Mech:   Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
		Config: sim.Config{TLB: tlb.Config{Entries: 64, Ways: 0}, BufferEntries: 16, PageShift: 12},
		Refs:   2_000,
	}
	cases := []struct {
		name string
		// first and second edit a copy of base each (nil leaves it).
		first, second func(j *Job)
		shards        int
	}{
		{"mechanism", nil, func(j *Job) { j.Mech = Mech{Kind: "RP"} }, 1},
		{"buffer", nil, func(j *Job) { j.Config.BufferEntries = 8 }, 1},
		{"timing point", func(j *Job) { j.Timing = &fast }, func(j *Job) { j.Timing = &slow }, 1},
		{"tlb ways 0 vs entries", nil, func(j *Job) { j.Config.TLB.Ways = 64 }, 1},
		{"seed", nil, func(j *Job) { j.Seed = 7 }, 2},
		{"warmup", nil, func(j *Job) { j.Warmup = 1_000 }, 2},
		{"refs", nil, func(j *Job) { j.Refs = 3_000 }, 2},
		{"tlb entries", nil, func(j *Job) { j.Config.TLB.Entries = 128 }, 2},
		{"page shift", nil, func(j *Job) { j.Config.PageShift = 13 }, 2},
		{"functional vs timed", nil, func(j *Job) { j.Timing = &fast }, 2},
		{"trace vs workload", nil, func(j *Job) { j.Source = src }, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := base, base
			if tc.first != nil {
				tc.first(&a)
			}
			tc.second(&b)
			_, sum, err := (&Runner{Workers: 1}).Run([]Job{a, b})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Shards != tc.shards {
				t.Errorf("Shards = %d, want %d", sum.Shards, tc.shards)
			}
		})
	}
}
