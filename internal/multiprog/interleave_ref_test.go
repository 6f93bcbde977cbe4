package multiprog

import "tlbprefetch/internal/trace"

// sliceInterleaver is the slice-backed interleaver this package used to
// export, kept as the reference model for StreamInterleaver: it
// round-robins fully materialized per-process streams, so its schedule
// depends on nothing but the stream lengths and the quantum. Process 0
// runs first, a process runs until its quantum expires or its stream ends,
// and exhausted processes drop out of the rotation — when one process
// remains it simply keeps running (no spurious switches to itself).
type sliceInterleaver struct {
	streams [][]trace.Ref
	quantum uint64
	pos     []int
	proc    int    // current process
	left    uint64 // references left in the current quantum
	live    int    // processes with references remaining
}

// newSliceInterleaver builds an interleaver over the given streams. It
// panics on a zero quantum or an empty stream list; zero-length streams are
// allowed (the process just never runs).
func newSliceInterleaver(streams [][]trace.Ref, quantum uint64) *sliceInterleaver {
	if len(streams) == 0 || quantum == 0 {
		panic("multiprog: need streams and a positive quantum")
	}
	it := &sliceInterleaver{
		streams: streams,
		quantum: quantum,
		pos:     make([]int, len(streams)),
		proc:    len(streams) - 1, // first advance lands on process 0
	}
	for _, s := range streams {
		if len(s) > 0 {
			it.live++
		}
	}
	return it
}

// Next returns the next scheduled reference and the process it belongs to,
// with the process's ASID tag already applied to the address. ok is false
// when every stream is exhausted.
func (it *sliceInterleaver) Next() (proc int, pc, vaddr uint64, ok bool) {
	if it.live == 0 {
		return 0, 0, 0, false
	}
	if it.left == 0 {
		// Quantum expired (or first dispatch): rotate to the next process
		// with references left — possibly the current one, when it is the
		// only process still running.
		for i := 1; i <= len(it.streams); i++ {
			p := (it.proc + i) % len(it.streams)
			if it.pos[p] < len(it.streams[p]) {
				it.proc = p
				it.left = it.quantum
				break
			}
		}
	}
	p := it.proc
	ref := it.streams[p][it.pos[p]]
	it.pos[p]++
	it.left--
	if it.pos[p] == len(it.streams[p]) {
		it.live--
		it.left = 0
	}
	return p, ref.PC, ref.VAddr | uint64(p+1)<<ASIDShift, true
}
