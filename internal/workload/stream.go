package workload

import (
	"io"
	"iter"

	"tlbprefetch/internal/trace"
)

// Stream is a workload model pulled as a trace.BatchReader, so synthetic
// workloads reach the simulators and the mix interleaver through the same
// interface as recorded traces. Generate runs as an iter.Pull coroutine
// whose emit callback writes straight into the caller's dst and yields
// only once dst is full: there is no internal buffer and no copy, and
// control switches once per batch. The reference stream is exactly
// Generate's, in order.
//
// ReadBatch and Close must be called from one goroutine. A consumer that
// stops reading before EOF must call Close to release the coroutine.
type Stream struct {
	next func() (struct{}, bool)
	stop func()
	dst  []trace.Ref // the batch being filled
	n    int         // references written to dst
	done bool
}

// NewStream returns the pull side of refs references of w.
func NewStream(w Workload, refs uint64) *Stream {
	s := &Stream{}
	s.next, s.stop = iter.Pull(func(yield func(struct{}) bool) {
		Generate(w, refs, func(pc, vaddr uint64) bool {
			s.dst[s.n] = trace.Ref{PC: pc, VAddr: vaddr}
			s.n++
			return s.n < len(s.dst) || yield(struct{}{})
		})
	})
	return s
}

// ReadBatch implements trace.BatchReader. It fills dst completely except
// for the partial last batch of the stream.
func (s *Stream) ReadBatch(dst []trace.Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if s.done {
		return 0, io.EOF
	}
	s.dst, s.n = dst, 0
	_, more := s.next()
	n := s.n
	s.dst = nil
	if !more {
		s.done = true
		if n == 0 {
			return 0, io.EOF
		}
	}
	return n, nil
}

// Close releases the generator coroutine. It is idempotent and a no-op
// after EOF.
func (s *Stream) Close() error {
	s.done = true
	s.stop()
	return nil
}
