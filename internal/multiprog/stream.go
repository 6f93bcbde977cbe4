package multiprog

import (
	"io"

	"tlbprefetch/internal/trace"
)

// StreamInterleaver round-robins per-process reference sources with a
// fixed context-switch quantum, holding only one buffered chunk
// (trace.BatchSize references) per process. The schedule is a pure function of the stream lengths and the
// quantum: process 0 runs first, a process runs until its quantum expires
// or its stream ends, and exhausted processes drop out of the rotation —
// when one process remains it simply keeps running (no spurious switches
// to itself). A drained chunk is refilled before the next rotation
// decision, so a process whose stream ends mid-quantum hands the CPU on at
// once and the schedule does not depend on how the sources chunk their
// references (pinned against a slice reference model by
// TestStreamInterleaverMatchesSlice).
//
// NextRun hands the schedule out one run at a time: the longest slice of
// one process's buffered chunk that stays inside its quantum. Next is a
// per-reference view over the same runs; a caller drains with one or the
// other. Both are allocation-free.
//
// A source error stops the schedule: NextRun and Next return ok=false and
// Err reports the error. Callers must check Err after draining.
type StreamInterleaver struct {
	srcs    []trace.BatchReader
	bufs    [][]trace.Ref // current chunk per process (refs at pos[p]:)
	pos     []int
	quantum uint64
	proc    int    // current process
	left    uint64 // references left in the current quantum
	live    int    // processes with references remaining
	drained bool   // proc's chunk is used up; refill before the next run
	err     error

	run     []trace.Ref // Next's unread part of the current run
	runProc int
}

// NewStreamInterleaver builds an interleaver over the given sources. It
// panics on a zero quantum or an empty source list; sources that are
// exhausted from the start are allowed (the process just never runs).
func NewStreamInterleaver(srcs []trace.BatchReader, quantum uint64) *StreamInterleaver {
	if len(srcs) == 0 || quantum == 0 {
		panic("multiprog: need streams and a positive quantum")
	}
	it := &StreamInterleaver{
		srcs:    srcs,
		bufs:    make([][]trace.Ref, len(srcs)),
		pos:     make([]int, len(srcs)),
		quantum: quantum,
		proc:    len(srcs) - 1, // first advance lands on process 0
	}
	for p := range srcs {
		it.bufs[p] = make([]trace.Ref, 0, trace.BatchSize)
		it.refill(p)
		if len(it.bufs[p]) > 0 {
			it.live++
		}
	}
	return it
}

// refill replaces process p's buffer with the source's next chunk. An
// exhausted source leaves the buffer empty; a source error is recorded
// (first one wins) and stops the schedule.
func (it *StreamInterleaver) refill(p int) {
	buf := it.bufs[p][:cap(it.bufs[p])]
	n, err := it.srcs[p].ReadBatch(buf)
	it.bufs[p] = buf[:n]
	it.pos[p] = 0
	if err != nil && err != io.EOF && it.err == nil {
		it.err = err
	}
}

// Err returns the first source error, if any. The schedule stops at the
// error; references delivered before it are valid.
func (it *StreamInterleaver) Err() error { return it.err }

// NextRun returns the next run of the schedule and the process it belongs
// to: the longest slice of that process's buffered chunk that ends at its
// quantum end or its chunk end, with the process's ASID tag already
// applied to every address. The slice aliases the interleaver's buffer and
// is valid until the next call. ok is false when every stream is exhausted
// or a source failed.
func (it *StreamInterleaver) NextRun() (proc int, run []trace.Ref, ok bool) {
	if it.drained {
		// The previous run emptied the chunk. Refill it now, after the
		// caller is done with the run and before the rotation decision,
		// which must know whether this process still has references.
		it.drained = false
		it.refill(it.proc)
		if len(it.bufs[it.proc]) == 0 {
			it.live--
			it.left = 0
		}
	}
	if it.live == 0 || it.err != nil {
		return 0, nil, false
	}
	if it.left == 0 {
		for i := 1; i <= len(it.srcs); i++ {
			p := (it.proc + i) % len(it.srcs)
			if it.pos[p] < len(it.bufs[p]) {
				it.proc = p
				it.left = it.quantum
				break
			}
		}
	}
	p := it.proc
	start := it.pos[p]
	end := len(it.bufs[p])
	if uint64(end-start) > it.left {
		end = start + int(it.left)
	}
	run = it.bufs[p][start:end]
	tag := uint64(p+1) << ASIDShift
	for i := range run {
		run[i].VAddr |= tag
	}
	it.pos[p] = end
	it.left -= uint64(len(run))
	it.drained = end == len(it.bufs[p])
	return p, run, true
}

// Next returns the next scheduled reference and the process it belongs to,
// with the process's ASID tag already applied to the address: NextRun's
// runs, one reference at a time. ok is false when every stream is
// exhausted or a source failed.
func (it *StreamInterleaver) Next() (proc int, pc, vaddr uint64, ok bool) {
	if len(it.run) == 0 {
		if it.runProc, it.run, ok = it.NextRun(); !ok {
			return 0, 0, 0, false
		}
	}
	ref := it.run[0]
	it.run = it.run[1:]
	return it.runProc, ref.PC, ref.VAddr, true
}
