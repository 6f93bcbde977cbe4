// Matrixsweep reproduces the scientific-computing scenario that motivates
// Distance Prefetching (the paper's swim/mgrid/applu discussion): blocked
// loop nests sweep the same arrays in different orders with different code.
//
// Page-indexed history (MP, RP) keys its predictions by which page follows
// which — scrambled every time the traversal order changes. PC-indexed
// stride detection (ASP) must re-lock its stride at every tile boundary of
// every nest. Only the distance pattern — "after a +1-page hop comes
// another +1-page hop; after the inter-array hop comes the next array's
// +1" — persists across nests, which is exactly what DP's table stores.
//
// The example builds the scenario from the public API (no canned workload)
// so the structure is visible, then shows how each mechanism fares.
package main

import (
	"fmt"

	"tlbprefetch"
)

// sweep emits one blocked pass over three arrays: for each tile of
// `tile` pages, every page of each array is touched `refsPerPage` times.
// order enumerates tile indices; backward sweeps descend within each tile
// (as a backward stencil sweep does); pcBase distinguishes this nest's code.
func sweep(s *tlbprefetch.Simulator, bases [3]uint64, pages, tile, refsPerPage int, order []int, backward bool, pcBase uint64) {
	for _, t := range order {
		lo, hi := t*tile, (t+1)*tile
		if hi > pages {
			hi = pages
		}
		for i := lo; i < hi; i++ {
			p := i
			if backward {
				p = hi - 1 - (i - lo) // descend within the tile
			}
			for r := 0; r < refsPerPage; r++ {
				for k, b := range bases {
					addr := (b+uint64(p))*4096 + uint64(r*64)
					s.Ref(pcBase+uint64(k)*4, addr)
				}
			}
		}
	}
}

func orders(ntiles int) [][]int {
	fwd := make([]int, ntiles)
	bwd := make([]int, ntiles)
	rb := make([]int, 0, ntiles)
	for i := 0; i < ntiles; i++ {
		fwd[i] = i
		bwd[i] = ntiles - 1 - i
	}
	for i := 0; i < ntiles; i += 2 {
		rb = append(rb, i)
	}
	for i := 1; i < ntiles; i += 2 {
		rb = append(rb, i)
	}
	return [][]int{fwd, bwd, rb}
}

func main() {
	const (
		pages       = 400 // pages per array (4x the TLB reach for all three)
		tile        = 4   // pages per tile: short per-PC miss runs
		refsPerPage = 64
		iterations  = 12
	)
	bases := [3]uint64{1 << 20, 1<<20 + 437, 1<<20 + 874}

	mechs := []tlbprefetch.Mech{
		{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "RP"},
		{Kind: "MP", Rows: 1024, Ways: 1, Slots: 2},
	}

	fmt.Println("three 400-page arrays, blocked sweeps, tile order rotating per nest")
	fmt.Println()
	ntiles := (pages + tile - 1) / tile
	for _, m := range mechs {
		pf := m.Build()
		s := tlbprefetch.NewSimulator(tlbprefetch.DefaultConfig(), pf)
		ords := orders(ntiles)
		for it := 0; it < iterations; it++ {
			for n := range ords {
				// Each nest has its own code (a distinct PC base) and, as
				// in a real multigrid cycle, the traversal order a nest
				// uses varies from iteration to iteration; odd nests sweep
				// backward within tiles.
				which := (n + it) % len(ords)
				sweep(s, bases, pages, tile, refsPerPage, ords[which], which == 1, 0x400000+uint64(n)*0x100)
			}
		}
		st := s.Stats()
		fmt.Printf("%-4s accuracy %.3f   (%d misses, %d from buffer)\n",
			pf.Name(), st.Accuracy(), st.Misses, st.BufferHits)
	}

	fmt.Println()
	fmt.Println("DP's distance rows survive the order changes; ASP pays a re-lock tax")
	fmt.Println("per tile per nest; RP/MP's page adjacency is scrambled every nest.")
}
