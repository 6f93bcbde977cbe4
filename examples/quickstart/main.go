// Quickstart: run Distance Prefetching against one of the paper's workload
// models and print the paper's headline metric — prediction accuracy, the
// fraction of TLB misses satisfied by the prefetch buffer.
package main

import (
	"fmt"

	"tlbprefetch"
)

func main() {
	cfg := tlbprefetch.DefaultConfig() // 128-entry FA TLB, 16-entry buffer, 4 KB pages

	w, ok := tlbprefetch.WorkloadByName("swim")
	if !ok {
		panic("workload not found")
	}

	fmt.Printf("workload %s (%s)\n", w.Name, w.Suite)
	fmt.Printf("model: %s\n\n", w.PaperNote)

	for _, m := range []tlbprefetch.Mech{
		{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, // the paper's contribution, at its recommended operating point
		{Kind: "RP"},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "MP", Rows: 256, Ways: 1, Slots: 2},
	} {
		pf := m.Build()
		st := tlbprefetch.RunWorkload(cfg, pf, w, 2_000_000)
		fmt.Printf("%-4s accuracy %.3f  (misses %d, buffer hits %d, extra memory ops %d)\n",
			pf.Name(), st.Accuracy(), st.Misses, st.BufferHits, st.MemOps())
	}
}
