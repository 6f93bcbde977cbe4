// Custom shows how to implement a new prefetching mechanism against the
// public Prefetcher interface and evaluate it with the library's simulator
// and workload models — the extension path a downstream user of this
// library would take.
//
// The example mechanism is a hybrid the paper hints at in its future work:
// distance prefetching with a sequential fallback — when the distance table
// has no prediction, fall back to prefetching the next page.
package main

import (
	"fmt"

	"tlbprefetch"
)

// dp is the paper's Distance Prefetching at its recommended operating point.
var dp = tlbprefetch.Mech{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}

// hybrid wraps DP and adds a next-page fallback when DP stays silent.
type hybrid struct {
	dp tlbprefetch.Prefetcher
}

func newHybrid() *hybrid {
	return &hybrid{dp: dp.Build()}
}

// Name implements tlbprefetch.Prefetcher.
func (h *hybrid) Name() string { return "DP+seq" }

// OnMiss implements tlbprefetch.Prefetcher. Predictions are appended to
// the simulator-owned dst buffer, as the interface requires.
func (h *hybrid) OnMiss(ev tlbprefetch.Event, dst []uint64) tlbprefetch.Action {
	act := h.dp.OnMiss(ev, dst)
	if len(act.Prefetches) > 0 {
		return act
	}
	return tlbprefetch.Action{Prefetches: append(dst, ev.VPN+1)}
}

// Reset implements tlbprefetch.Prefetcher.
func (h *hybrid) Reset() {
	h.dp.Reset()
}

func main() {
	cfg := tlbprefetch.DefaultConfig()
	fmt.Println("custom mechanism: DP with a sequential fallback")
	fmt.Println()
	fmt.Printf("%-12s %-10s %-10s %-10s\n", "workload", "DP", "DP+seq", "delta")
	for _, name := range []string{"gzip", "swim", "mcf", "gsm-enc", "fma3d"} {
		w, ok := tlbprefetch.WorkloadByName(name)
		if !ok {
			panic("missing workload " + name)
		}
		base := tlbprefetch.RunWorkload(cfg, dp.Build(), w, 1_000_000)
		hy := tlbprefetch.RunWorkload(cfg, newHybrid(), w, 1_000_000)
		fmt.Printf("%-12s %-10.3f %-10.3f %+.3f\n",
			name, base.Accuracy(), hy.Accuracy(), hy.Accuracy()-base.Accuracy())
	}
	fmt.Println()
	fmt.Println("The fallback helps on cold sequential streams and is harmless where")
	fmt.Println("DP already predicts — the kind of study this library is built for.")
}
