package xrand_test

import (
	"testing"

	"tlbprefetch/internal/workload"
	"tlbprefetch/internal/xrand"
)

// zipfPairs collects the distinct (Pages, Theta) pairs of the registry's
// Zipf-skewed hot sets.
func zipfPairs() map[workload.HotSet]bool {
	pairs := map[workload.HotSet]bool{}
	for _, w := range workload.All() {
		for _, p := range w.Build() {
			if p, ok := p.(*workload.HotSet); ok && p.Theta > 0 {
				pairs[workload.HotSet{Pages: p.Pages, Theta: p.Theta}] = true
			}
		}
	}
	return pairs
}

// TestZipfRangeAtMaxDraw pins Next's [0, n) contract at the top of the
// draw range, where the inverse CDF approaches n: for every (Pages, Theta)
// the registry uses, the largest 53-bit draw maps below Pages, and the
// smallest to 0. Two small skewed pairs, whose unclamped inverse CDF
// reaches n at the largest draw, pin the clamp itself.
func TestZipfRangeAtMaxDraw(t *testing.T) {
	pairs := zipfPairs()
	if len(pairs) == 0 {
		t.Fatal("no Zipf-skewed hot sets in the workload registry")
	}
	pairs[workload.HotSet{Pages: 3, Theta: 0.8}] = true
	pairs[workload.HotSet{Pages: 4, Theta: 0.9}] = true
	for p := range pairs {
		z := xrand.NewZipf(p.Pages, p.Theta)
		if k := z.Exact(xrand.MaxDraw); k < 0 || k >= p.Pages {
			t.Errorf("NewZipf(%d, %v): largest draw maps to %d, outside [0, %d)", p.Pages, p.Theta, k, p.Pages)
		}
		if k := z.Exact(0); k != 0 {
			t.Errorf("NewZipf(%d, %v): draw 0 maps to %d, want 0", p.Pages, p.Theta, k)
		}
	}
}
