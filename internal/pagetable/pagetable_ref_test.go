package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refTable is the map-of-pointers page table this package used to be,
// kept as the reference model for the open-addressed table: one heap PTE
// per page, neighbours linked by page number.
type refTable struct {
	entries map[uint64]*refPTE
	top     uint64
	hasTop  bool
	size    int
}

type refPTE struct {
	next, prev       uint64
	hasNext, hasPrev bool
	inStack          bool
}

func newRefTable() *refTable {
	return &refTable{entries: make(map[uint64]*refPTE)}
}

func (pt *refTable) AppendNeighborsN(dst []uint64, vpn uint64, n int) []uint64 {
	e, ok := pt.entries[vpn]
	if !ok || !e.inStack || n <= 0 {
		return dst
	}
	perSide := (n + 1) / 2
	out := dst
	base := len(dst)
	up, hasUp := e.prev, e.hasPrev
	down, hasDown := e.next, e.hasNext
	ups, downs := 0, 0
	for len(out)-base < n && ((hasUp && ups < perSide) || (hasDown && downs < perSide)) {
		if hasUp && ups < perSide {
			out = append(out, up)
			ups++
			u := pt.entries[up]
			up, hasUp = u.prev, u.hasPrev
		}
		if len(out)-base < n && hasDown && downs < perSide {
			out = append(out, down)
			downs++
			d := pt.entries[down]
			down, hasDown = d.next, d.hasNext
		}
	}
	return out
}

func (pt *refTable) Unlink(vpn uint64) int {
	e, ok := pt.entries[vpn]
	if !ok || !e.inStack {
		return 0
	}
	ops := 0
	if e.hasPrev {
		p := pt.entries[e.prev]
		p.next, p.hasNext = e.next, e.hasNext
		ops++
	} else {
		pt.top, pt.hasTop = e.next, e.hasNext
		ops++
	}
	if e.hasNext {
		n := pt.entries[e.next]
		n.prev, n.hasPrev = e.prev, e.hasPrev
		ops++
	}
	e.inStack = false
	e.hasNext, e.hasPrev = false, false
	pt.size--
	return ops
}

func (pt *refTable) Push(vpn uint64) int {
	e, ok := pt.entries[vpn]
	if !ok {
		e = &refPTE{}
		pt.entries[vpn] = e
	}
	ops := 0
	if e.inStack {
		ops += pt.Unlink(vpn)
	}
	if pt.hasTop {
		old := pt.entries[pt.top]
		old.prev, old.hasPrev = vpn, true
		ops++
		e.next, e.hasNext = pt.top, true
	} else {
		e.hasNext = false
	}
	e.hasPrev = false
	e.inStack = true
	pt.top, pt.hasTop = vpn, true
	ops++
	pt.size++
	return ops
}

func (pt *refTable) StackWalk() []uint64 {
	var out []uint64
	cur, ok := pt.top, pt.hasTop
	for ok {
		out = append(out, cur)
		e := pt.entries[cur]
		cur, ok = e.next, e.hasNext
	}
	return out
}

func (pt *refTable) Reset() {
	clear(pt.entries)
	pt.hasTop = false
	pt.size = 0
}

// ptOp is one page-table operation of a differential sequence.
type ptOp struct {
	kind byte // 'p' Push, 'u' Unlink, 'n' AppendNeighborsN, 'r' Reset
	vpn  uint64
	n    int // neighbour window, for 'n'
}

func (o ptOp) String() string {
	switch o.kind {
	case 'n':
		return fmt.Sprintf("AppendNeighborsN(%d, %d)", o.vpn, o.n)
	case 'r':
		return "Reset()"
	case 'p':
		return fmt.Sprintf("Push(%d)", o.vpn)
	}
	return fmt.Sprintf("Unlink(%d)", o.vpn)
}

// applyBoth runs op on the table and the reference model and compares the
// return values and every observable afterwards: Pages, Top, StackSize
// and the full StackWalk.
func applyBoth(pt *PageTable, ref *refTable, op ptOp) error {
	switch op.kind {
	case 'p':
		if got, want := pt.Push(op.vpn), ref.Push(op.vpn); got != want {
			return fmt.Errorf("returned %d, reference %d", got, want)
		}
	case 'u':
		if got, want := pt.Unlink(op.vpn), ref.Unlink(op.vpn); got != want {
			return fmt.Errorf("returned %d, reference %d", got, want)
		}
	case 'n':
		// A non-empty dst checks that the table appends after it.
		got := pt.AppendNeighborsN([]uint64{op.vpn}, op.vpn, op.n)
		want := ref.AppendNeighborsN([]uint64{op.vpn}, op.vpn, op.n)
		if !slices.Equal(got, want) {
			return fmt.Errorf("returned %v, reference %v", got, want)
		}
	case 'r':
		pt.Reset()
		ref.Reset()
	}
	if got, want := pt.Pages(), len(ref.entries); got != want {
		return fmt.Errorf("Pages %d, reference %d", got, want)
	}
	if got, want := pt.StackSize(), ref.size; got != want {
		return fmt.Errorf("StackSize %d, reference %d", got, want)
	}
	top, ok := pt.Top()
	if ok != ref.hasTop || (ok && top != ref.top) {
		return fmt.Errorf("Top (%d, %v), reference (%d, %v)", top, ok, ref.top, ref.hasTop)
	}
	if got, want := pt.StackWalk(), ref.StackWalk(); !slices.Equal(got, want) {
		return fmt.Errorf("StackWalk %v, reference %v", got, want)
	}
	return nil
}

// randomOps draws an RP-like operation sequence over a page pool of the
// given size: mostly pushes and unlinks, neighbour reads of windows 1..4,
// and a rare Reset. Pages come from a sliding window, so the stack keeps
// churning while the pool grows the table past several doublings.
func randomOps(rng *rand.Rand, count, pool int) []ptOp {
	ops := make([]ptOp, count)
	for i := range ops {
		lo := i * pool / count / 2
		vpn := uint64(lo+rng.Intn(pool/2+1)) * 4096
		switch r := rng.Intn(1000); {
		case r < 450:
			ops[i] = ptOp{kind: 'p', vpn: vpn}
		case r < 750:
			ops[i] = ptOp{kind: 'u', vpn: vpn}
		case r < 999:
			ops[i] = ptOp{kind: 'n', vpn: vpn, n: 1 + rng.Intn(4)}
		default:
			ops[i] = ptOp{kind: 'r'}
		}
	}
	return ops
}

// TestPageTableDifferential drives the table and the reference model with
// random Push/Unlink/AppendNeighborsN/Reset sequences whose page pools
// cross several growths, comparing after every operation.
func TestPageTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := 100 << seed // 200 .. 6400 pages: up to 8 doublings
		pt, ref := New(), newRefTable()
		grows := 0
		for i, op := range randomOps(rng, 6000, pool) {
			before := len(pt.cells)
			if err := applyBoth(pt, ref, op); err != nil {
				t.Fatalf("seed %d, op %d %v: %v", seed, i, op, err)
			}
			if len(pt.cells) > before {
				grows++
			}
			if ok, desc := pt.CheckInvariants(); !ok {
				t.Fatalf("seed %d, op %d %v: %s", seed, i, op, desc)
			}
		}
		if grows < 3 {
			t.Fatalf("seed %d: only %d growths; the sequence must cross several", seed, grows)
		}
	}
}

// maxFuzzOps caps a fuzz input's length: every operation is followed by
// a full stack comparison, so a long input would cost quadratic time.
const maxFuzzOps = 512

// decodeOps turns fuzz bytes into at most maxFuzzOps operations, two bytes
// each: the first byte's low three bits pick the operation (and Reset only
// on an exact 7), the remaining 13 bits are the page number.
func decodeOps(data []byte) []ptOp {
	var ops []ptOp
	for i := 0; i+1 < len(data) && len(ops) < maxFuzzOps; i += 2 {
		b := data[i]
		vpn := uint64(b>>3)<<8 | uint64(data[i+1])
		switch k := b & 7; {
		case k < 3:
			ops = append(ops, ptOp{kind: 'p', vpn: vpn})
		case k < 5:
			ops = append(ops, ptOp{kind: 'u', vpn: vpn})
		case k < 7:
			ops = append(ops, ptOp{kind: 'n', vpn: vpn, n: 1 + int(data[i+1]&3)})
		case b == 7:
			ops = append(ops, ptOp{kind: 'r'})
		default:
			ops = append(ops, ptOp{kind: 'p', vpn: vpn})
		}
	}
	return ops
}

// FuzzPageTable runs fuzzed operation sequences against the reference
// model (seed corpus in testdata/fuzz/FuzzPageTable).
func FuzzPageTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, ref := New(), newRefTable()
		for i, op := range decodeOps(data) {
			if err := applyBoth(pt, ref, op); err != nil {
				t.Fatalf("op %d %v: %v", i, op, err)
			}
		}
		if ok, desc := pt.CheckInvariants(); !ok {
			t.Fatal(desc)
		}
	})
}
