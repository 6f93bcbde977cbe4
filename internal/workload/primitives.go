package workload

import "tlbprefetch/internal/xrand"

// touch emits n references to page (n >= 1), spreading intra-page offsets so
// larger-page simulations still see realistic addresses. The first reference
// to a page is the one that can miss; the rest are TLB hits that dilute the
// miss rate, which is how the models are tuned to the paper's published
// per-application miss rates.
func touch(emit EmitFunc, pc, page uint64, n int) bool {
	if n < 1 {
		n = 1
	}
	for j := 0; j < n; j++ {
		off := uint64(j*136) % PageBytes
		if !emit(pc, page*PageBytes+off) {
			return false
		}
	}
	return true
}

// addPage offsets a page number by a signed distance.
func addPage(page uint64, d int64) uint64 {
	return uint64(int64(page) + d)
}

// Seq scans Pages pages from Base sequentially (class (b) behaviour when
// the phase list repeats it: regular strided access over data touched
// several times).
type Seq struct {
	PC          uint64
	Base        uint64 // first page
	Pages       int
	RefsPerPage int
	Backward    bool
}

// Run implements Phase.
func (s *Seq) Run(emit EmitFunc, _ *xrand.Rand) bool {
	for i := 0; i < s.Pages; i++ {
		page := s.Base + uint64(i)
		if s.Backward {
			page = s.Base + uint64(s.Pages-1-i)
		}
		if !touch(emit, s.PC, page, s.RefsPerPage) {
			return false
		}
	}
	return true
}

// Stride scans Count stops from Base, advancing StridePages each stop —
// the column-major sweeps of galgel-style codes when StridePages > 1.
type Stride struct {
	PC          uint64
	Base        uint64
	StridePages int64
	Count       int
	RefsPerStop int
}

// Run implements Phase.
func (s *Stride) Run(emit EmitFunc, _ *xrand.Rand) bool {
	page := s.Base
	for i := 0; i < s.Count; i++ {
		if !touch(emit, s.PC, page, s.RefsPerStop) {
			return false
		}
		page = addPage(page, s.StridePages)
	}
	return true
}

// FreshScan is class (a): strided access over data touched only once. Its
// base advances every iteration, so history-based mechanisms never see a
// page twice (gzip's input stream, epic's image pass, ...).
type FreshScan struct {
	PC          uint64
	StartPage   uint64
	PagesPerRun int
	RefsPerPage int
	StridePages int64 // 0 means 1

	next    uint64
	started bool
}

// Run implements Phase.
func (f *FreshScan) Run(emit EmitFunc, _ *xrand.Rand) bool {
	if !f.started {
		f.next = f.StartPage
		f.started = true
	}
	stride := f.StridePages
	if stride == 0 {
		stride = 1
	}
	page := f.next
	for i := 0; i < f.PagesPerRun; i++ {
		if !touch(emit, f.PC, page, f.RefsPerPage) {
			return false
		}
		page = addPage(page, stride)
	}
	f.next = page
	return true
}

// Tiles models blocked stencil codes (multigrid level walks, red/black
// Gauss-Seidel, blocked SSOR): several arrays are swept tile by tile, and
// the tile visit order cycles between passes (forward, backward, even-odd).
// Each tile visit gives any single PC only TilePages consecutive misses, so
// PC-indexed stride prediction pays its relock tax at every tile boundary,
// and the changing tile order scrambles page-adjacency history — while the
// distance motif (intra-tile interleave distances plus a small alphabet of
// tile-jump distances) repeats forever. This is the regime where the paper
// finds DP "does much better than the others" (wupwise, swim, mgrid, applu).
type Tiles struct {
	PCBase        uint64
	Bases         []uint64 // starting page of each array
	PagesPerArray int
	TilePages     int
	ElemsPerPage  int

	pass int
}

// Run implements Phase.
func (t *Tiles) Run(emit EmitFunc, _ *xrand.Rand) bool {
	defer func() { t.pass++ }()
	epp := t.ElemsPerPage
	if epp < 1 {
		epp = 1
	}
	tp := t.TilePages
	if tp < 1 {
		tp = 1
	}
	ntiles := (t.PagesPerArray + tp - 1) / tp
	// Backward passes descend within each tile too, as a backward stencil
	// sweep does — flipping the page adjacency that recency/markov history
	// keys on, while the distance alphabet stays the same (±1 and the
	// inter-array gaps).
	backward := t.pass%3 == 1
	for _, tile := range tileOrder(ntiles, t.pass) {
		lo := tile * tp
		hi := lo + tp
		if hi > t.PagesPerArray {
			hi = t.PagesPerArray
		}
		for i := lo; i < hi; i++ {
			pi := i
			if backward {
				pi = hi - 1 - (i - lo)
			}
			for e := 0; e < epp; e++ {
				off := uint64(e * (PageBytes / epp))
				for k, b := range t.Bases {
					page := b + uint64(pi)
					if !emit(t.PCBase+uint64(k)*4, page*PageBytes+off) {
						return false
					}
				}
			}
		}
	}
	return true
}

// tileOrder returns the tile visit order for a pass: forward, backward, or
// even-tiles-then-odd-tiles (red/black), cycling with period 3.
func tileOrder(n, pass int) []int {
	out := make([]int, 0, n)
	switch pass % 3 {
	case 0:
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
	case 1:
		for i := n - 1; i >= 0; i-- {
			out = append(out, i)
		}
	default:
		for i := 0; i < n; i += 2 {
			out = append(out, i)
		}
		for i := 1; i < n; i += 2 {
			out = append(out, i)
		}
	}
	return out
}

// BlockMotif is class (d) behaviour as it arises in block-structured codecs
// (gsm, jpeg, mpeg): each block applies a fixed intra-block page-offset
// motif to a fresh base. The pages are new every block (defeating page-
// indexed history) and a single PC walks the whole motif (defeating
// PC-indexed stride detection); only the distance *pattern* repeats.
type BlockMotif struct {
	PC          uint64
	Start       uint64
	Motif       []int64 // page offsets within a block, applied in order
	BlockPages  uint64  // base advance between blocks
	Blocks      int     // blocks per Run
	RefsPerStop int
	// NoiseProb replaces a motif step with a uniformly random page in
	// [base, base+NoiseSpread) with this probability — dilution used for
	// the applications where the paper reports DP as the only mechanism
	// with noticeable (but modest) accuracy.
	NoiseProb   float64
	NoiseSpread uint64
	// Fresh makes the base advance across Runs (first-touch blocks). When
	// false, every Run revisits the same blocks (history repeats).
	Fresh bool

	next    uint64
	started bool
}

// Run implements Phase.
func (b *BlockMotif) Run(emit EmitFunc, r *xrand.Rand) bool {
	if !b.started {
		b.next = b.Start
		b.started = true
	}
	base := b.next
	if !b.Fresh {
		base = b.Start
	}
	for blk := 0; blk < b.Blocks; blk++ {
		for _, d := range b.Motif {
			page := addPage(base, d)
			if b.NoiseProb > 0 && r.Bool(b.NoiseProb) {
				page = base + r.Uint64n(b.NoiseSpread+1)
			}
			if !touch(emit, b.PC, page, b.RefsPerStop) {
				return false
			}
		}
		base += b.BlockPages
	}
	if b.Fresh {
		b.next = base
	}
	return true
}

// PointerChase is class (d) behaviour as it arises in pointer-linked data
// structures: a fixed, irregular page visit order (created once, from the
// workload's seed) that repeats every Run. The successor of a page is
// stable, which is exactly what recency/markov history exploits; strides
// are irregular, which is what starves PC-indexed stride detection.
//
// LocalityPages > 0 makes the shuffle block-local: pages are permuted only
// within blocks of that many pages, bounding the distance alphabet —
// the regime where DP's distance table stays competitive with RP.
type PointerChase struct {
	PC            uint64
	Base          uint64
	Pages         int
	RefsPerHop    int
	LocalityPages int

	order []uint32
}

// Run implements Phase.
func (p *PointerChase) Run(emit EmitFunc, r *xrand.Rand) bool {
	if p.order == nil {
		p.order = buildChaseOrder(p.Pages, p.LocalityPages, r)
	}
	for _, idx := range p.order {
		if !touch(emit, p.PC, p.Base+uint64(idx), p.RefsPerHop) {
			return false
		}
	}
	return true
}

func buildChaseOrder(pages, locality int, r *xrand.Rand) []uint32 {
	order := make([]uint32, pages)
	if locality <= 0 || locality >= pages {
		for i, v := range r.Perm(pages) {
			order[i] = uint32(v)
		}
		return order
	}
	// Block-local shuffle: permute within consecutive blocks.
	pos := 0
	for start := 0; start < pages; start += locality {
		n := locality
		if start+n > pages {
			n = pages - start
		}
		for _, v := range r.Perm(n) {
			order[pos] = uint32(start + v)
			pos++
		}
	}
	return order
}

// Alternating reproduces the paper's example of history that alternates —
// "a sequence such as 1,2,3,4, 1,5,2,6, 3,7,4,8, 1,2,3,4, ... would do
// better with MP than RP for s=2" (§3.2, parser/vortex discussion). Each
// page's successor flips between two values from pass to pass, so MP's two
// slots cover both while RP's single most-recent adjacency does not.
type Alternating struct {
	PC          uint64
	Base        uint64
	N           int
	RefsPerStop int

	pass int
}

// Run implements Phase.
func (a *Alternating) Run(emit EmitFunc, _ *xrand.Rand) bool {
	defer func() { a.pass++ }()
	if a.pass%2 == 0 {
		// S1: base+0 .. base+N-1.
		for i := 0; i < a.N; i++ {
			if !touch(emit, a.PC, a.Base+uint64(i), a.RefsPerStop) {
				return false
			}
		}
		return true
	}
	// S2: base+0, base+N+0, base+1, base+N+1, ...
	for i := 0; i < a.N; i++ {
		if !touch(emit, a.PC, a.Base+uint64(i), a.RefsPerStop) {
			return false
		}
		if !touch(emit, a.PC, a.Base+uint64(a.N+i), a.RefsPerStop) {
			return false
		}
	}
	return true
}

// HotSet models a working set small enough to live in the TLB: Refs
// references spread over Pages pages (uniform, or Zipf-skewed when Theta >
// 0). With Pages below the TLB size this produces almost no misses — the
// eon/g721/pgp-dec regime where "TLB prefetching is not as important for
// them anyway".
type HotSet struct {
	PC    uint64
	Base  uint64
	Pages int
	Refs  int
	Theta float64

	zipf *xrand.Zipf
}

// Run implements Phase.
func (h *HotSet) Run(emit EmitFunc, r *xrand.Rand) bool {
	if h.Theta > 0 && h.zipf == nil {
		h.zipf = xrand.NewZipf(h.Pages, h.Theta)
	}
	for i := 0; i < h.Refs; i++ {
		var idx int
		if h.zipf != nil {
			idx = h.zipf.Next(r)
		} else {
			idx = r.Intn(h.Pages)
		}
		off := uint64(i*136) % PageBytes
		if !emit(h.PC, (h.Base+uint64(idx))*PageBytes+off) {
			return false
		}
	}
	return true
}

// RandomWalk is class (e): uniformly random pages over a footprint far
// beyond TLB reach, a stream no mechanism predicts (fma3d's regime).
type RandomWalk struct {
	PC          uint64
	Base        uint64
	Pages       int
	Hops        int
	RefsPerStop int
}

// Run implements Phase.
func (w *RandomWalk) Run(emit EmitFunc, r *xrand.Rand) bool {
	for i := 0; i < w.Hops; i++ {
		page := w.Base + uint64(r.Intn(w.Pages))
		if !touch(emit, w.PC, page, w.RefsPerStop) {
			return false
		}
	}
	return true
}
