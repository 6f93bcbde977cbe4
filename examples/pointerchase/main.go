// Pointerchase reproduces the paper's Table 3 argument on a pointer-
// intensive workload: Recency-based Prefetching (RP) wins the accuracy
// contest — the linked structure is traversed in the same irregular order
// every time, which is exactly the history RP's LRU stack replays — yet
// Distance Prefetching wins on execution cycles, because RP pays four
// pointer-manipulation memory operations on every miss while DP's table
// lives on chip.
//
// The timing model is the paper's: 100-cycle TLB miss penalty, 50-cycle
// prefetch memory operations contending only with other prefetch traffic,
// and RP's skip-prefetch-when-busy rule.
package main

import (
	"fmt"

	"tlbprefetch"
)

func main() {
	w, ok := tlbprefetch.WorkloadByName("mcf")
	if !ok {
		panic("mcf workload missing")
	}
	const refs = 2_000_000

	fmt.Printf("workload %s: %s\n\n", w.Name, w.PaperNote)

	tc := tlbprefetch.DefaultTimingConfig()
	base := tlbprefetch.RunWorkloadTimed(tc, nil, w, refs)
	fmt.Printf("no prefetching: %12d cycles (CPI %.2f, miss rate %.3f)\n\n",
		base.Cycles, base.CPI(), base.MissRate())

	type row struct {
		name string
		st   tlbprefetch.TimingStats
	}
	var rows []row
	for _, m := range []tlbprefetch.Mech{
		{Kind: "RP"},
		{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
	} {
		pf := m.Build()
		rows = append(rows, row{pf.Name(), tlbprefetch.RunWorkloadTimed(tc, pf, w, refs)})
	}

	fmt.Printf("%-4s %-10s %-10s %-10s %-12s\n", "mech", "normalized", "accuracy", "memops", "skipped")
	for _, r := range rows {
		fmt.Printf("%-4s %-10.3f %-10.3f %-10d %-12d\n",
			r.name,
			float64(r.st.Cycles)/float64(base.Cycles),
			r.st.Accuracy(),
			r.st.MemOps(),
			r.st.SkippedPref)
	}

	fmt.Println()
	fmt.Println("RP predicts more misses but moves 4 stack pointers in memory per miss;")
	fmt.Println("DP's lower accuracy still buys more cycles because its table is on chip.")
}
