package trace

import "io"

// BatchReader yields references in caller-owned chunks. It is the one way
// references are read, whether a trace file replays them or a workload
// model generates them. The contract is deliberately simpler than
// io.Reader's:
//
//   - ReadBatch fills dst with up to len(dst) references and returns how
//     many it wrote. A successful call returns n > 0 with a nil error.
//   - The end of the stream is reported as (0, io.EOF) on its own call —
//     never alongside data. Likewise a decode error surfaces on the call
//     after the last good references were delivered, so dst[:n] is always
//     fully valid when n > 0.
//   - An error other than io.EOF is final: every later call returns it
//     again, so a damaged stream never resumes or ends as if it were clean.
//   - ReadBatch with an empty dst returns (0, nil).
//
// Callers therefore loop:
//
//	for {
//		n, err := src.ReadBatch(buf)
//		if err == io.EOF {
//			break
//		}
//		if err != nil {
//			return err
//		}
//		process(buf[:n])
//	}
type BatchReader interface {
	ReadBatch(dst []Ref) (int, error)
}

// BatchSize is the chunk every streaming loop asks a BatchReader for: large
// enough that the cost of a ReadBatch call (a decode or generation step)
// amortizes over the chunk, small enough that the chunk stays in cache
// while the simulators walk it.
const BatchSize = 4096

// Reader is BatchReader under its old name. It exists only because the
// frozen perfbench module still names it; ROADMAP item 5 deletes it. Code
// in this module uses BatchReader.
type Reader = BatchReader

// AsBatch returns r. It exists only because the frozen perfbench module
// still calls it; ROADMAP item 5 deletes it. Code in this module uses the
// reader directly.
func AsBatch(r Reader) BatchReader { return r }

// final holds a reader's final error (io.EOF or a decode error) once the
// stream has ended; see the BatchReader contract.
type final struct{ err error }

// stop makes err final and returns the n references decoded before it,
// holding err back for the next call when n > 0.
func (f *final) stop(n int, err error) (int, error) {
	f.err = err
	if n > 0 {
		return n, nil
	}
	return 0, err
}

// SliceReader reads an in-memory slice.
type SliceReader struct {
	refs []Ref
	pos  int
}

// NewSliceReader wraps refs (not copied).
func NewSliceReader(refs []Ref) *SliceReader { return &SliceReader{refs: refs} }

// ReadBatch implements BatchReader.
func (r *SliceReader) ReadBatch(dst []Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if r.pos >= len(r.refs) {
		return 0, io.EOF
	}
	n := copy(dst, r.refs[r.pos:])
	r.pos += n
	return n, nil
}

// CopyBatch pumps src into dst in chunks of BatchSize until EOF,
// returning the number of records copied.
func CopyBatch(dst Writer, src BatchReader) (uint64, error) {
	var (
		n   uint64
		buf [BatchSize]Ref
	)
	for {
		k, err := src.ReadBatch(buf[:])
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		for i := 0; i < k; i++ {
			if err := dst.Write(buf[i]); err != nil {
				return n, err
			}
			n++
		}
	}
}
