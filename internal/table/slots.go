package table

// SlotList is the fixed-capacity, LRU-ordered list of predictions that MP and
// DP keep inside each table row ("each row of the table can have s slots").
//
// Values are signed so the same type serves MP (page numbers, always >= 0)
// and DP (distances, which may be negative). The list is MRU-first: Values()
// returns the most recently confirmed prediction first, which is the order
// prefetches are issued in (so that when the prefetch buffer is small, the
// strongest predictions land first). A zero SlotList holds nothing until
// Reset gives it a capacity.
type SlotList struct {
	vals []int64
	cap  int
}

// Reset (re)initializes the list to empty with capacity s > 0, reusing the
// existing backing array when it is large enough. MP and DP call this when
// they recycle an evicted table row (via Table.GetOrInsertLazy), which is
// what keeps row turnover allocation-free in steady state.
func (l *SlotList) Reset(s int) {
	if s <= 0 {
		panic("table: SlotList capacity must be positive")
	}
	if cap(l.vals) < s {
		l.vals = make([]int64, 0, s)
	} else {
		l.vals = l.vals[:0]
	}
	l.cap = s
}

// Len returns the number of occupied slots.
func (l *SlotList) Len() int { return len(l.vals) }

// Touch records v as the most recent successor: if v is present it is moved
// to the front; otherwise it is inserted at the front, evicting the LRU slot
// when the list is full (the paper: "If all the slots are occupied, then we
// evict one based on LRU policy").
func (l *SlotList) Touch(v int64) {
	for i, x := range l.vals {
		if x == v {
			copy(l.vals[1:i+1], l.vals[0:i])
			l.vals[0] = v
			return
		}
	}
	if len(l.vals) < l.cap {
		l.vals = append(l.vals, 0)
	}
	copy(l.vals[1:], l.vals[:len(l.vals)-1])
	l.vals[0] = v
}

// Values returns the slots MRU-first. The returned slice aliases internal
// storage and must not be mutated or retained across Touch calls.
func (l *SlotList) Values() []int64 { return l.vals }

// Contains reports whether v occupies a slot.
func (l *SlotList) Contains(v int64) bool {
	for _, x := range l.vals {
		if x == v {
			return true
		}
	}
	return false
}
