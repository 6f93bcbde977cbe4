package tlb

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Entries: 128},            // fully associative default
		{Entries: 128, Ways: 128}, // explicit FA
		{Entries: 64, Ways: 2},
		{Entries: 256, Ways: 4},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{Entries: 0},
		{Entries: -8, Ways: 2},
		{Entries: 100, Ways: 3},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestAccessMissThenInsert(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 4})
	if tl.Access(10) {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(10)
	if !tl.Access(10) {
		t.Fatal("miss after insert")
	}
}

func TestLRUEvictionFullyAssociative(t *testing.T) {
	tl := New(Config{Entries: 2})
	tl.Insert(1)
	tl.Insert(2)
	tl.Access(1) // 2 becomes LRU
	ev, was := tl.Insert(3)
	if !was || ev != 2 {
		t.Fatalf("evicted %d,%v; want 2,true", ev, was)
	}
	if tl.Contains(2) {
		t.Fatal("2 still resident after eviction")
	}
	if !tl.Contains(1) || !tl.Contains(3) {
		t.Fatal("wrong residents")
	}
}

func TestSetAssocIndexing(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. Even VPNs to set 0, odd to set 1.
	tl := New(Config{Entries: 4, Ways: 2})
	tl.Insert(0)
	tl.Insert(2)
	tl.Insert(4) // evicts 0
	if tl.Contains(0) {
		t.Fatal("0 should have been evicted by set-0 pressure")
	}
	tl.Insert(1)
	tl.Insert(3)
	if !tl.Contains(1) || !tl.Contains(3) {
		t.Fatal("set 1 disturbed by set 0")
	}
	if tl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tl.Len())
	}
}

func TestInsertExistingPromotes(t *testing.T) {
	tl := New(Config{Entries: 2})
	tl.Insert(1)
	tl.Insert(2)
	if ev, was := tl.Insert(1); was || ev != 0 {
		t.Fatalf("re-insert evicted %d,%v", ev, was)
	}
	// Now 2 is LRU.
	if ev, was := tl.Insert(3); !was || ev != 2 {
		t.Fatalf("expected eviction of 2, got %d,%v", ev, was)
	}
}

func TestReset(t *testing.T) {
	tl := New(Config{Entries: 4})
	tl.Access(1)
	tl.Insert(1)
	tl.Reset()
	if tl.Len() != 0 {
		t.Fatal("nonzero Len after Reset")
	}
}

// Property: a fully associative TLB of size n holds exactly the n most
// recently touched distinct pages (touch = hit or fill).
func TestQuickFullyAssociativeLRU(t *testing.T) {
	f := func(refs []uint8) bool {
		const n = 8
		tl := New(Config{Entries: n})
		var recency []uint64 // MRU first, distinct
		for _, r := range refs {
			vpn := uint64(r % 32)
			if !tl.Access(vpn) {
				tl.Insert(vpn)
			}
			// model update
			for i, v := range recency {
				if v == vpn {
					recency = append(recency[:i], recency[i+1:]...)
					break
				}
			}
			recency = append([]uint64{vpn}, recency...)
			if len(recency) > n {
				recency = recency[:n]
			}
		}
		if tl.Len() != len(recency) {
			return false
		}
		for _, v := range recency {
			if !tl.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: set-associative TLB — each set holds the `ways` most recently
// touched distinct pages mapping to it.
func TestQuickSetAssociativeLRU(t *testing.T) {
	f := func(refs []uint8) bool {
		const entries, ways = 8, 2
		nsets := entries / ways
		tl := New(Config{Entries: entries, Ways: ways})
		model := make([][]uint64, nsets)
		for _, r := range refs {
			vpn := uint64(r % 64)
			if !tl.Access(vpn) {
				tl.Insert(vpn)
			}
			si := int(vpn % uint64(nsets))
			m := model[si]
			for i, v := range m {
				if v == vpn {
					m = append(m[:i], m[i+1:]...)
					break
				}
			}
			m = append([]uint64{vpn}, m...)
			if len(m) > ways {
				m = m[:ways]
			}
			model[si] = m
		}
		for si := range model {
			for _, v := range model[si] {
				if !tl.Contains(v) {
					return false
				}
			}
		}
		total := 0
		for _, m := range model {
			total += len(m)
		}
		return tl.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchBufferFIFO(t *testing.T) {
	b := NewPrefetchBuffer(2)
	b.Insert(1, 0)
	b.Insert(2, 0)
	ev, was := b.Insert(3, 0)
	if !was || ev != 1 {
		t.Fatalf("FIFO eviction: got %d,%v want 1,true", ev, was)
	}
	if b.Contains(1) || !b.Contains(2) || !b.Contains(3) {
		t.Fatal("wrong contents after FIFO eviction")
	}
}

func TestPrefetchBufferTakeOut(t *testing.T) {
	b := NewPrefetchBuffer(4)
	b.Insert(7, 123)
	ready, ok := b.TakeOut(7)
	if !ok || ready != 123 {
		t.Fatalf("TakeOut = %d,%v", ready, ok)
	}
	if _, ok := b.TakeOut(7); ok {
		t.Fatal("double TakeOut succeeded")
	}
	if b.Len() != 0 {
		t.Fatal("buffer not empty after TakeOut")
	}
	if n := b.UnusedInEpoch(); n != 0 {
		t.Fatalf("unused = %d after the only prefetch was used, want 0", n)
	}
}

func TestPrefetchBufferDuplicateInsertKeepsEarlierReady(t *testing.T) {
	b := NewPrefetchBuffer(4)
	b.Insert(5, 100)
	b.Insert(5, 50) // earlier completion wins
	ready, _ := b.TakeOut(5)
	if ready != 50 {
		t.Fatalf("ready = %d, want 50", ready)
	}
	b.Insert(6, 50)
	b.Insert(6, 200) // later completion ignored
	ready, _ = b.TakeOut(6)
	if ready != 50 {
		t.Fatalf("ready = %d, want 50", ready)
	}
}

func TestPrefetchBufferDuplicateDoesNotChangeOrder(t *testing.T) {
	b := NewPrefetchBuffer(2)
	b.Insert(1, 0)
	b.Insert(2, 0)
	b.Insert(1, 0) // duplicate; 1 stays oldest
	ev, was := b.Insert(3, 0)
	if !was || ev != 1 {
		t.Fatalf("expected 1 evicted as oldest, got %d,%v", ev, was)
	}
}

func TestPrefetchBufferEvictedUnusedCounter(t *testing.T) {
	b := NewPrefetchBuffer(1)
	b.Insert(1, 0)
	b.Insert(2, 0) // evicts 1 unused
	if _, ok := b.TakeOut(2); !ok {
		t.Fatal("TakeOut(2) missed")
	}
	if n := b.UnusedInEpoch(); n != 1 {
		t.Fatalf("unused = %d; want 1 (page 1 evicted unused)", n)
	}
}

// Property: buffer never exceeds capacity; TakeOut returns exactly what was
// inserted and not yet removed/evicted.
func TestQuickPrefetchBuffer(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewPrefetchBuffer(4)
		model := []uint64{} // FIFO of resident vpns
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
			if op&0x80 == 0 { // insert
				if !contains(vpn) {
					if len(model) == 4 {
						model = model[1:]
					}
					model = append(model, vpn)
				}
				b.Insert(vpn, 0)
			} else { // take out
				_, ok := b.TakeOut(vpn)
				want := contains(vpn)
				if ok != want {
					return false
				}
				if want {
					for i, x := range model {
						if x == vpn {
							model = append(model[:i], model[i+1:]...)
							break
						}
					}
				}
			}
			if b.Len() != len(model) || b.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTLBAccessHit(b *testing.B) {
	tl := New(Config{Entries: 128})
	for i := 0; i < 128; i++ {
		tl.Insert(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(uint64(i % 128))
	}
}

func BenchmarkTLBMissInsert(b *testing.B) {
	tl := New(Config{Entries: 128})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tl.Access(uint64(i)) {
			tl.Insert(uint64(i))
		}
	}
}
