package table

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	cases := []struct {
		entries, ways, sets int
	}{
		{256, 1, 256}, // direct-mapped
		{256, 2, 128}, // 2-way
		{256, 4, 64},  // 4-way
		{256, 256, 1}, // fully associative
		{32, 1, 32},
		{1024, 4, 256},
	}
	for _, c := range cases {
		tb := New[int](c.entries, c.ways)
		if tb.Entries() != c.entries || tb.Ways() != c.ways || tb.Sets() != c.sets {
			t.Errorf("New(%d,%d): got entries=%d ways=%d sets=%d, want sets=%d",
				c.entries, c.ways, tb.Entries(), tb.Ways(), tb.Sets(), c.sets)
		}
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, c := range []struct{ entries, ways int }{{0, 1}, {-4, 2}, {8, 0}, {10, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.entries, c.ways)
				}
			}()
			New[int](c.entries, c.ways)
		}()
	}
}

func TestLookupInsert(t *testing.T) {
	tb := New[string](4, 4) // one fully associative set
	if _, ok := tb.Lookup(7); ok {
		t.Fatal("lookup in empty table succeeded")
	}
	tb.Insert(7, "seven")
	v, ok := tb.Lookup(7)
	if !ok || *v != "seven" {
		t.Fatalf("lookup(7) = %v,%v", v, ok)
	}
	// Overwrite.
	tb.Insert(7, "VII")
	if v, _ := tb.Lookup(7); *v != "VII" {
		t.Fatalf("overwrite failed, got %q", *v)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestLRUEvictionFullyAssociative(t *testing.T) {
	tb := New[int](2, 2)
	tb.Insert(1, 10)
	tb.Insert(2, 20)
	// Touch 1 so 2 becomes LRU.
	if _, ok := tb.Lookup(1); !ok {
		t.Fatal("missing key 1")
	}
	ev, evicted := tb.Insert(3, 30)
	if !evicted || ev != 2 {
		t.Fatalf("evicted %v,%v; want 2,true", ev, evicted)
	}
	if _, ok := tb.Peek(2); ok {
		t.Fatal("key 2 should have been evicted")
	}
	for _, k := range []uint64{1, 3} {
		if _, ok := tb.Peek(k); !ok {
			t.Fatalf("key %d should be resident", k)
		}
	}
}

func TestDirectMappedConflict(t *testing.T) {
	tb := New[int](4, 1) // 4 sets, 1 way: keys 0 and 4 conflict
	tb.Insert(0, 1)
	ev, evicted := tb.Insert(4, 2)
	if !evicted || ev != 0 {
		t.Fatalf("conflict eviction: got %v,%v want 0,true", ev, evicted)
	}
	if _, ok := tb.Peek(0); ok {
		t.Fatal("key 0 survived a direct-mapped conflict")
	}
	// Non-conflicting keys coexist.
	tb.Insert(1, 3)
	tb.Insert(2, 4)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
}

func TestSetIsolation(t *testing.T) {
	// 2 sets x 2 ways. Even keys go to set 0, odd to set 1.
	tb := New[int](4, 2)
	tb.Insert(0, 0)
	tb.Insert(2, 0)
	tb.Insert(4, 0) // evicts 0 (LRU of set 0)
	tb.Insert(1, 0)
	if _, ok := tb.Peek(0); ok {
		t.Fatal("key 0 should have been evicted from set 0")
	}
	if _, ok := tb.Peek(1); !ok {
		t.Fatal("key 1 in set 1 must be unaffected by set 0 pressure")
	}
}

func TestGetOrInsert(t *testing.T) {
	tb := New[int](2, 2)
	v, existed := tb.GetOrInsert(9)
	if existed || *v != 0 {
		t.Fatalf("first GetOrInsert: existed=%v *v=%d", existed, *v)
	}
	*v = 42
	v2, existed := tb.GetOrInsert(9)
	if !existed || *v2 != 42 {
		t.Fatalf("second GetOrInsert: existed=%v *v=%d", existed, *v2)
	}
}

func TestNegativeDistanceKeys(t *testing.T) {
	// DP stores signed distances as uint64 keys; low-bit indexing must still
	// spread and retrieve them.
	tb := New[int](8, 2)
	keys := []int64{-1, -2, -3, 1, 2, 3}
	for i, d := range keys {
		tb.Insert(uint64(d), i)
	}
	for i, d := range keys {
		v, ok := tb.Peek(uint64(d))
		if !ok || *v != i {
			t.Fatalf("distance %d lost (ok=%v)", d, ok)
		}
	}
}

func TestReset(t *testing.T) {
	tb := New[int](4, 2)
	tb.Insert(1, 1)
	tb.Insert(2, 2)
	tb.Lookup(1)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	l, h, e := tb.Stats()
	if l != 0 || h != 0 || e != 0 {
		t.Fatalf("stats after Reset = %d,%d,%d", l, h, e)
	}
}

func TestStatsCounting(t *testing.T) {
	tb := New[int](2, 2)
	tb.Insert(1, 1)
	tb.Lookup(1) // hit
	tb.Lookup(2) // miss
	tb.Insert(2, 2)
	tb.Insert(3, 3) // evicts 1 (LRU: 1 was looked up, then 2 and 3 inserted... order: after Lookup(1): [1]; Insert(2): [2,1]; Insert(3): evict 1)
	l, h, e := tb.Stats()
	if l != 2 || h != 1 || e != 1 {
		t.Fatalf("stats = lookups %d hits %d evicts %d; want 2,1,1", l, h, e)
	}
}

// Property: the table never exceeds its capacity, and within a set the
// resident keys are exactly the `ways` most recently used distinct keys that
// map to that set.
func TestQuickLRUSetContents(t *testing.T) {
	f := func(ops []uint16) bool {
		const entries, ways = 16, 4
		tb := New[int](entries, ways)
		nsets := entries / ways
		// Reference model: per set, MRU-first list of keys.
		model := make([][]uint64, nsets)
		for _, op := range ops {
			key := uint64(op % 64)
			si := int(key % uint64(nsets))
			// Mirror Insert semantics in the model.
			m := model[si]
			found := -1
			for i, k := range m {
				if k == key {
					found = i
					break
				}
			}
			if found >= 0 {
				m = append(m[:found], m[found+1:]...)
			} else if len(m) == ways {
				m = m[:ways-1]
			}
			model[si] = append([]uint64{key}, m...)
			tb.Insert(key, int(op))
		}
		if tb.Len() > entries {
			return false
		}
		for si := range model {
			for _, k := range model[si] {
				if _, ok := tb.Peek(k); !ok {
					return false
				}
			}
		}
		// And totals agree.
		total := 0
		for _, m := range model {
			total += len(m)
		}
		return tb.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotListTouchAndLRU(t *testing.T) {
	var l SlotList
	l.Reset(2)
	l.Touch(5)
	l.Touch(7)
	if got := l.Values(); len(got) != 2 || got[0] != 7 || got[1] != 5 {
		t.Fatalf("values = %v, want [7 5]", got)
	}
	// Re-touch 5: moves to front, no eviction.
	l.Touch(5)
	if got := l.Values(); got[0] != 5 || got[1] != 7 {
		t.Fatalf("values = %v, want [5 7]", got)
	}
	// New value evicts LRU (7).
	l.Touch(9)
	if l.Contains(7) || !l.Contains(5) || !l.Contains(9) {
		t.Fatalf("after eviction: %v", l.Values())
	}
	if got := l.Values(); got[0] != 9 {
		t.Fatalf("MRU should be 9, got %v", got)
	}
}

func TestSlotListNegative(t *testing.T) {
	var l SlotList
	l.Reset(3)
	l.Touch(-4)
	l.Touch(2)
	l.Touch(-4)
	if got := l.Values(); got[0] != -4 || got[1] != 2 || len(got) != 2 {
		t.Fatalf("values = %v", got)
	}
}

func TestSlotListPanicsOnZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(0) did not panic")
		}
	}()
	var l SlotList
	l.Reset(0)
}

// Property: SlotList holds at most cap distinct values; the front is always
// the most recently touched; duplicates never appear.
func TestQuickSlotList(t *testing.T) {
	f := func(vals []int8, capHint uint8) bool {
		c := int(capHint%6) + 1
		var l SlotList
		l.Reset(c)
		var last int64
		touched := false
		for _, v := range vals {
			l.Touch(int64(v))
			last = int64(v)
			touched = true
		}
		got := l.Values()
		if len(got) > c {
			return false
		}
		seen := map[int64]bool{}
		for _, v := range got {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		if touched && (len(got) == 0 || got[0] != last) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableLookupHit(b *testing.B) {
	tb := New[int](256, 4)
	for i := 0; i < 256; i++ {
		tb.Insert(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(uint64(i % 256))
	}
}

func BenchmarkTableInsertEvict(b *testing.B) {
	tb := New[int](256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(uint64(i), i)
	}
}
