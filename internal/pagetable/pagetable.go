// Package pagetable models the in-memory page table that Recency-based
// Prefetching (RP, Saulsbury et al., as adapted by the paper) augments with
// an LRU stack threaded through the page table entries.
//
// Each PTE carries `next` and `prev` pointers ("Extra fields that are
// required in the PTE", paper Figure 5) linking pages into a doubly-linked
// stack ordered by TLB-eviction recency: when the TLB evicts a translation,
// that page is pushed on top of the stack. When a page misses in the TLB, it
// is unlinked from wherever it sits in the stack, and its former stack
// neighbours are the prefetch candidates — pages referenced at around the
// same time in the past.
//
// Because the pointers live in memory, every manipulation costs a memory
// system operation; Unlink and Push return the pointer writes they
// perform, which RP reports as its metadata traffic for the timing model to
// charge (the paper charges 4 pointer manipulations per miss plus 2
// prefetch fetches).
//
// The table itself is an open-addressed hash table whose cells are the
// PTEs: a PTE's stack pointers are cell indices, so a miss's neighbour
// read, unlink and push each cost one hash probe, and no page owns a heap
// object of its own.
package pagetable

import "math/bits"

// cell is one PTE and, at once, one slot of the table. Only the stack
// linkage matters to the study; the translation payload is implicit
// (identity mapping).
type cell struct {
	key  uint64 // vpn+1; 0 marks an empty slot
	next int32  // slot of the entry below (older eviction), or none
	prev int32  // slot of the entry above, none at the top, or offStack
}

const (
	none     = -1 // no neighbour in this direction (or an empty stack)
	offStack = -2 // prev of a PTE that is not linked into the stack

	minCells = 64
	// fibMul spreads consecutive page numbers across the table
	// (Fibonacci hashing: 2^64 divided by the golden ratio).
	fibMul = 0x9E3779B97F4A7C15
)

// PageTable is the RP substrate: the PTEs plus the stack top pointer. A
// PTE exists from the first time its page is pushed; it is never removed,
// only unlinked, until Reset.
type PageTable struct {
	cells []cell // len is a power of two, at most 3/4 occupied
	shift uint   // 64 - log2(len(cells))
	used  int    // occupied cells: the PTEs allocated
	top   int32  // slot of the top of the stack, or none
	size  int    // number of pages currently linked in the stack
}

// New returns an empty page table.
func New() *PageTable {
	return &PageTable{top: none}
}

// find returns vpn's slot and true, or, when vpn has no PTE, the empty
// slot its insertion would take and false.
func (pt *PageTable) find(vpn uint64) (int32, bool) {
	key := vpn + 1
	if len(pt.cells) == 0 || key == 0 {
		return none, false
	}
	mask := uint64(len(pt.cells) - 1)
	for i := key * fibMul >> pt.shift; ; i = (i + 1) & mask {
		switch pt.cells[i].key {
		case key:
			return int32(i), true
		case 0:
			return int32(i), false
		}
	}
}

// grow doubles the table (or allocates the first one), re-placing every PTE
// and remapping the stack pointers to the new slots.
func (pt *PageTable) grow() {
	old := pt.cells
	n := max(2*len(old), minCells)
	pt.cells = make([]cell, n)
	pt.shift = uint(64 - bits.TrailingZeros(uint(n)))
	moved := make([]int32, len(old))
	for i, c := range old {
		if c.key == 0 {
			continue
		}
		j, _ := pt.find(c.key - 1)
		pt.cells[j] = c
		moved[i] = j
	}
	for i := range pt.cells {
		c := &pt.cells[i]
		if c.key == 0 {
			continue
		}
		if c.next >= 0 {
			c.next = moved[c.next]
		}
		if c.prev >= 0 {
			c.prev = moved[c.prev]
		}
	}
	if pt.top >= 0 {
		pt.top = moved[pt.top]
	}
}

// AppendNeighborsN appends up to n stack entries around vpn to dst — the
// prefetch candidates on a miss of vpn ("prefetch the next and prev entries
// from the page-table into the prefetch buffer"). It walks outward
// alternately (prev, next, prev's prev, next's next, ...), the wider
// prefetch window of Saulsbury et al.'s multi-entry variant. Each direction
// contributes at most ceil(n/2) entries, so n == 2 reads exactly one prev
// and one next pointer from the missed PTE, never a deeper walk down a
// single side (the paper's RP reads only the two pointers). A page that is
// not in the stack has no neighbours.
func (pt *PageTable) AppendNeighborsN(dst []uint64, vpn uint64, n int) []uint64 {
	i, ok := pt.find(vpn)
	if !ok || pt.cells[i].prev == offStack || n <= 0 {
		return dst
	}
	perSide := (n + 1) / 2
	base := len(dst)
	up, down := pt.cells[i].prev, pt.cells[i].next
	ups, downs := 0, 0
	for len(dst)-base < n && ((up >= 0 && ups < perSide) || (down >= 0 && downs < perSide)) {
		if up >= 0 && ups < perSide {
			u := &pt.cells[up]
			dst = append(dst, u.key-1)
			ups++
			up = u.prev
		}
		if len(dst)-base < n && down >= 0 && downs < perSide {
			d := &pt.cells[down]
			dst = append(dst, d.key-1)
			downs++
			down = d.next
		}
	}
	return dst
}

// Unlink removes vpn from the stack, splicing its neighbours together, and
// returns the number of pointer-field memory writes performed (0 if the page
// was not in the stack; up to 2 otherwise — the paper: "If the item was in
// the middle of the stack, then it needs to be removed (taking 2
// references)").
func (pt *PageTable) Unlink(vpn uint64) int {
	i, ok := pt.find(vpn)
	if !ok {
		return 0
	}
	return pt.unlink(i)
}

// unlink is Unlink of the PTE in slot i.
func (pt *PageTable) unlink(i int32) int {
	c := &pt.cells[i]
	if c.prev == offStack {
		return 0
	}
	ops := 1 // the predecessor's next, or the top pointer
	if c.prev >= 0 {
		pt.cells[c.prev].next = c.next
	} else {
		pt.top = c.next
	}
	if c.next >= 0 {
		pt.cells[c.next].prev = c.prev
		ops++
	}
	c.next, c.prev = none, offStack
	pt.size--
	return ops
}

// Push places vpn on top of the stack ("when an entry is evicted from the
// TLB it is put on top of the stack, its next pointer is set to the previous
// entry that was evicted") and returns the number of pointer-field memory
// writes (2 in steady state: the new top's next, and the old top's prev; 1
// for the very first push). If the page is somehow already linked it is
// unlinked first (defensive; the simulator's invariants prevent this), and
// the unlink's writes are part of the returned total.
func (pt *PageTable) Push(vpn uint64) int {
	i, ok := pt.find(vpn)
	if !ok {
		if vpn+1 == 0 {
			panic("pagetable: page number out of range")
		}
		if (pt.used+1)*4 > len(pt.cells)*3 {
			pt.grow()
			i, _ = pt.find(vpn)
		}
		pt.cells[i] = cell{key: vpn + 1, next: none, prev: offStack}
		pt.used++
	}
	ops := pt.unlink(i)
	if pt.top >= 0 {
		pt.cells[pt.top].prev = i
		ops++ // write old top's prev
	}
	pt.cells[i].next, pt.cells[i].prev = pt.top, none
	pt.top = i
	ops++ // write new entry's pointers / the top pointer
	pt.size++
	return ops
}

// StackSize returns the number of pages currently linked in the stack.
func (pt *PageTable) StackSize() int { return pt.size }

// Pages returns the number of PTEs allocated (distinct pages pushed).
func (pt *PageTable) Pages() int { return pt.used }

// Top returns the top-of-stack page, if any.
func (pt *PageTable) Top() (uint64, bool) {
	if pt.top < 0 {
		return 0, false
	}
	return pt.cells[pt.top].key - 1, true
}

// StackWalk returns the stack contents from top to bottom. It is O(stack)
// and intended for tests and invariant checks; it panics if the list is
// inconsistent (a cycle or a dangling pointer), making corruption loud.
func (pt *PageTable) StackWalk() []uint64 {
	var out []uint64
	for cur := pt.top; cur != none; cur = pt.cells[cur].next {
		if len(out) == pt.used {
			panic("pagetable: cycle in LRU stack")
		}
		if cur < 0 || int(cur) >= len(pt.cells) || pt.cells[cur].key == 0 || pt.cells[cur].prev == offStack {
			panic("pagetable: dangling stack pointer")
		}
		out = append(out, pt.cells[cur].key-1)
	}
	if len(out) != pt.size {
		panic("pagetable: stack size mismatch")
	}
	return out
}

// CheckInvariants verifies the doubly-linked structure (forward and backward
// consistency). It returns false with a description on violation; tests use
// it after random operation sequences.
func (pt *PageTable) CheckInvariants() (bool, string) {
	walk := func() (ok bool, desc string, pages []uint64) {
		defer func() {
			if r := recover(); r != nil {
				ok, desc = false, "walk panicked"
			}
		}()
		return true, "", pt.StackWalk()
	}
	ok, desc, _ := walk()
	if !ok {
		return false, desc
	}
	// Backward consistency: each page's prev must point at its predecessor.
	prev := int32(none)
	for cur := pt.top; cur != none; cur = pt.cells[cur].next {
		if pt.cells[cur].prev != prev {
			if prev == none {
				return false, "top of stack has a prev pointer"
			}
			return false, "prev pointer does not match predecessor"
		}
		prev = cur
	}
	// No page outside the walk may claim stack membership.
	linked := 0
	for _, c := range pt.cells {
		if c.key != 0 && c.prev != offStack {
			linked++
		}
	}
	if linked != pt.size {
		return false, "stack membership inconsistent with walk"
	}
	return true, ""
}

// Reset drops all entries, keeping the table's capacity.
func (pt *PageTable) Reset() {
	clear(pt.cells)
	pt.used = 0
	pt.top = none
	pt.size = 0
}
