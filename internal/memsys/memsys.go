// Package memsys models the memory-system cost of prefetching for the
// paper's Table 3 experiment.
//
// The paper's model (§3.2, "Comparing DP with RP in greater detail"): the
// prefetch-related memory operations — RP's LRU-stack pointer manipulations
// and every prefetch fetch of a page table entry — are "treated as cache
// misses and need to be serviced from main memory with a cost of 50 cycles",
// and "the prefetch memory traffic does not contend with the normal data
// trafficc, but only with other prefetch traffic". We therefore model a
// single prefetch channel that serializes these operations: an operation
// issued at time t starts at max(t, channel-free time) and completes
// opLatency cycles later.
package memsys

// Channel serializes prefetch-related memory operations.
//
// Each operation has a latency (cycles from start to data arrival — the
// paper's 50-cycle main-memory cost) and an occupancy (cycles the channel
// is blocked before the next operation may start). A fully serialized
// memory (occupancy == latency) models one outstanding request; a smaller
// occupancy models a pipelined memory system with multiple requests in
// flight, which is what a 2002-era out-of-order core's memory interface
// provides. NewPipelinedChannel(l, l) is full serialization.
//
// The channel's only state is the cycle it next becomes free; the cycle
// model's TimingStats account for the time its operations cost.
type Channel struct {
	opLatency   uint64
	opOccupancy uint64
	freeAt      uint64 // cycle at which the channel can start the next op
}

// NewPipelinedChannel builds a channel whose operations complete latency
// cycles after they start but block the channel only occupancy cycles.
func NewPipelinedChannel(opLatency, opOccupancy uint64) *Channel {
	if opLatency == 0 || opOccupancy == 0 {
		panic("memsys: operation latency/occupancy must be positive")
	}
	if opOccupancy > opLatency {
		panic("memsys: occupancy cannot exceed latency")
	}
	return &Channel{opLatency: opLatency, opOccupancy: opOccupancy}
}

// Busy reports whether the channel is still servicing earlier operations at
// cycle now. RP's implementation uses this for its skip rule: "if there is a
// TLB miss soon after the previous one ... and the prefetching initiated
// earlier is not complete, we only wait for the LRU stack to get updated and
// do not prefetch those items at that time."
func (c *Channel) Busy(now uint64) bool { return c.freeAt > now }

// Issue enqueues n sequential operations at cycle now and returns the cycle
// at which the last one completes. n == 0 returns now unchanged.
func (c *Channel) Issue(now uint64, n int) (completeAt uint64) {
	if n <= 0 {
		return now
	}
	start := now
	if c.freeAt > start {
		start = c.freeAt
	}
	c.freeAt = start + uint64(n)*c.opOccupancy
	return start + uint64(n-1)*c.opOccupancy + c.opLatency
}

// IssueEach enqueues n sequential operations at cycle now and appends the
// completion cycle of each, in order, to dst. Used when each operation
// delivers a separately usable result (prefetch fetches landing in the
// buffer one by one); passing a reused dst[:0] keeps the call
// allocation-free.
func (c *Channel) IssueEach(dst []uint64, now uint64, n int) []uint64 {
	if n <= 0 {
		return dst
	}
	start := now
	if c.freeAt > start {
		start = c.freeAt
	}
	for i := 0; i < n; i++ {
		dst = append(dst, start+c.opLatency)
		start += c.opOccupancy
	}
	c.freeAt = start
	return dst
}
