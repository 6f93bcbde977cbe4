package pagetable

import (
	"testing"
	"testing/quick"
)

func TestPushUnlinkBasics(t *testing.T) {
	pt := New()
	if pt.StackSize() != 0 {
		t.Fatal("new table has nonzero stack")
	}
	// First push: only the top pointer / own fields are written.
	if ops := pt.Push(1); ops != 1 {
		t.Fatalf("first push ops = %d, want 1", ops)
	}
	// Second push: also writes old top's prev.
	if ops := pt.Push(2); ops != 2 {
		t.Fatalf("second push ops = %d, want 2", ops)
	}
	if got := pt.StackWalk(); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("stack = %v, want [2 1]", got)
	}
	top, ok := pt.Top()
	if !ok || top != 2 {
		t.Fatalf("top = %d,%v", top, ok)
	}
}

func TestUnlinkMiddle(t *testing.T) {
	pt := New()
	pt.Push(1)
	pt.Push(2)
	pt.Push(3) // stack: 3 2 1
	if ops := pt.Unlink(2); ops != 2 {
		t.Fatalf("middle unlink ops = %d, want 2", ops)
	}
	if got := pt.StackWalk(); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("stack = %v, want [3 1]", got)
	}
	if ok, desc := pt.CheckInvariants(); !ok {
		t.Fatal(desc)
	}
}

func TestUnlinkTopAndBottom(t *testing.T) {
	pt := New()
	pt.Push(1)
	pt.Push(2)
	pt.Push(3) // 3 2 1
	if ops := pt.Unlink(3); ops != 2 {
		// top: write top pointer + successor's prev
		t.Fatalf("top unlink ops = %d, want 2", ops)
	}
	if got := pt.StackWalk(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("stack = %v", got)
	}
	if ops := pt.Unlink(1); ops != 1 {
		// bottom: only predecessor's next
		t.Fatalf("bottom unlink ops = %d, want 1", ops)
	}
	if got := pt.StackWalk(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stack = %v, want [2]", got)
	}
	// Unlink the only element.
	pt.Unlink(2)
	if pt.StackSize() != 0 {
		t.Fatal("stack not empty")
	}
	if _, ok := pt.Top(); ok {
		t.Fatal("top pointer survives empty stack")
	}
}

func TestUnlinkAbsentIsFree(t *testing.T) {
	pt := New()
	pt.Push(1)
	if ops := pt.Unlink(99); ops != 0 {
		t.Fatalf("unlink of absent page cost %d ops", ops)
	}
	pt.Push(50)
	pt.Unlink(50) // the PTE stays allocated, off the stack
	if got := pt.AppendNeighborsN(nil, 50, 2); got != nil {
		t.Fatalf("unlinked page has neighbours %v", got)
	}
	if ops := pt.Unlink(50); ops != 0 {
		t.Fatalf("unlink of unlinked page cost %d ops", ops)
	}
}

func TestNeighbors(t *testing.T) {
	pt := New()
	pt.Push(1)
	pt.Push(2)
	pt.Push(3) // 3 2 1
	got := pt.AppendNeighborsN(nil, 2, 2)
	// prev (toward top) first, then next.
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("neighbors of middle = %v, want [3 1]", got)
	}
	if got := pt.AppendNeighborsN(nil, 3, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("neighbors of top = %v, want [2]", got)
	}
	if got := pt.AppendNeighborsN(nil, 1, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("neighbors of bottom = %v, want [2]", got)
	}
	if got := pt.AppendNeighborsN(nil, 42, 2); got != nil {
		t.Fatalf("neighbors of absent page = %v, want nil", got)
	}
	// Appending keeps what dst already holds.
	if got := pt.AppendNeighborsN([]uint64{7}, 2, 2); len(got) != 3 || got[0] != 7 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("append into [7] = %v, want [7 3 1]", got)
	}
}

func TestNeighborsN(t *testing.T) {
	pt := New()
	for _, v := range []uint64{1, 2, 3, 4, 5} {
		pt.Push(v)
	}
	// Stack top-to-bottom: 5 4 3 2 1. Around 3, walking outward:
	// prev(4), next(2), prev2(5), next2(1).
	got := pt.AppendNeighborsN(nil, 3, 4)
	want := []uint64{4, 2, 5, 1}
	if len(got) != len(want) {
		t.Fatalf("AppendNeighborsN = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendNeighborsN = %v, want %v", got, want)
		}
	}
	// Requesting more than available truncates gracefully.
	if got := pt.AppendNeighborsN(nil, 5, 10); len(got) != 4 {
		t.Fatalf("from top: %v", got)
	}
	// Degenerate cases.
	if pt.AppendNeighborsN(nil, 99, 2) != nil {
		t.Fatal("absent page has neighbours")
	}
	if pt.AppendNeighborsN(nil, 3, 0) != nil {
		t.Fatal("n=0 returned entries")
	}
}

func TestRepushMovesToTop(t *testing.T) {
	pt := New()
	pt.Push(1)
	pt.Push(2)
	pt.Push(3) // 3 2 1
	pt.Push(1) // defensive path: unlink then push
	if got := pt.StackWalk(); got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("stack = %v, want [1 3 2]", got)
	}
	if ok, desc := pt.CheckInvariants(); !ok {
		t.Fatal(desc)
	}
}

func TestPointerOpsAccumulate(t *testing.T) {
	pt := New()
	got := pt.Push(1) // 1
	got += pt.Push(2) // 2
	got += pt.Push(3) // 2  => 5 so far
	got += pt.Unlink(2)
	// middle unlink = 2 => 7
	if got != 7 {
		t.Fatalf("pointer ops = %d, want 7", got)
	}
}

func TestPagesCount(t *testing.T) {
	pt := New()
	pt.Push(1)
	pt.Push(2)
	pt.Push(1)
	if pt.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", pt.Pages())
	}
	// Reads and unlinks of absent pages allocate nothing; an unlinked
	// page keeps its PTE.
	pt.AppendNeighborsN(nil, 3, 2)
	pt.Unlink(3)
	pt.Unlink(2)
	if pt.Pages() != 2 {
		t.Fatalf("Pages = %d after lookups and an unlink, want 2", pt.Pages())
	}
}

func TestReset(t *testing.T) {
	pt := New()
	pt.Push(1)
	pt.Push(2)
	pt.Reset()
	if pt.Pages() != 0 || pt.StackSize() != 0 {
		t.Fatal("Reset left state behind")
	}
	if _, ok := pt.Top(); ok {
		t.Fatal("Reset left top pointer")
	}
}

// Property: after an arbitrary sequence of pushes and unlinks the stack is a
// consistent doubly-linked list whose contents match a slice model.
func TestQuickStackConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		pt := New()
		var model []uint64 // top first
		remove := func(v uint64) {
			for i, x := range model {
				if x == v {
					model = append(model[:i], model[i+1:]...)
					return
				}
			}
		}
		contains := func(v uint64) bool {
			for _, x := range model {
				if x == v {
					return true
				}
			}
			return false
		}
		for _, op := range ops {
			vpn := uint64(op % 16)
			if op&0x80 == 0 {
				if contains(vpn) {
					remove(vpn)
				}
				model = append([]uint64{vpn}, model...)
				pt.Push(vpn)
			} else {
				remove(vpn)
				pt.Unlink(vpn)
			}
			if ok, _ := pt.CheckInvariants(); !ok {
				return false
			}
		}
		got := pt.StackWalk()
		if len(got) != len(model) {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushUnlink(b *testing.B) {
	pt := New()
	for i := 0; i < 1024; i++ {
		pt.Push(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i % 1024)
		pt.Unlink(v)
		pt.Push(v)
	}
}
