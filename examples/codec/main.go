// Codec reproduces the block-codec scenario where the paper finds DP to be
// "the only mechanism which makes any noticeable predictions" (gsm, jpeg):
// a fixed intra-frame offset motif applied to a fresh frame each time.
//
// The frames are new pages, so page-indexed history (MP, RP) never sees a
// repeat. A single code path walks the whole motif, so the PC-indexed
// stride table (ASP) sees a changing stride on every miss. Only the
// *distance pattern* repeats — frame after frame — and DP locks onto it.
//
// The example also shows the dilution effect the paper reports: with
// data-dependent noise mixed in, DP's accuracy drops toward the paper's
// "does not exceed 20%" band while the others stay at zero.
package main

import (
	"fmt"

	"tlbprefetch"
)

// frame processes one frame at the given base page: the motif of intra-
// frame page offsets, each touched 16 times (the codec's arithmetic),
// optionally replacing steps with pseudo-random pages (data-dependent
// lookups).
func frame(s *tlbprefetch.Simulator, base uint64, motif []int64, noise func() (uint64, bool)) {
	for _, d := range motif {
		page := uint64(int64(base) + d)
		if noise != nil {
			if np, ok := noise(); ok {
				page = np
			}
		}
		for r := 0; r < 16; r++ {
			s.Ref(0x500000, page*4096+uint64(r*128))
		}
	}
}

func run(name string, noiseEvery int) {
	motif := []int64{0, 2, 5, 1, 4, 3, 6} // fixed sub-band visit order
	mechs := []tlbprefetch.Mech{
		{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "RP"},
		{Kind: "MP", Rows: 1024, Ways: 1, Slots: 2},
	}
	fmt.Printf("%s:\n", name)
	for _, m := range mechs {
		pf := m.Build()
		s := tlbprefetch.NewSimulator(tlbprefetch.DefaultConfig(), pf)
		base := uint64(1 << 21)
		rng := uint64(0x9e3779b97f4a7c15)
		step := 0
		for f := 0; f < 30000; f++ {
			var noise func() (uint64, bool)
			if noiseEvery > 0 {
				noise = func() (uint64, bool) {
					step++
					if step%noiseEvery != 0 {
						return 0, false
					}
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return base + rng%150, true
				}
			}
			frame(s, base, motif, noise)
			base += 8 // next frame: fresh pages
		}
		st := s.Stats()
		fmt.Printf("  %-4s accuracy %.3f  (misses %d)\n", pf.Name(), st.Accuracy(), st.Misses)
	}
	fmt.Println()
}

func main() {
	fmt.Println("block codec: fixed page-offset motif over fresh frames")
	fmt.Println()
	run("clean motif (mpeg-dec regime: DP well ahead)", 0)
	run("noisy motif (gsm/jpeg regime: DP modest, everyone else ~0)", 2)
}
