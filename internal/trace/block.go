package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// --- Binary format v2: block-structured delta encoding ---------------------
//
// The fixed-width v1 format spends 16 bytes per record; real reference
// streams are overwhelmingly local (small PC advances, small or repeating
// address strides), so v2 delta-encodes both fields and typically lands at
// 2–6 bytes per record. The file is a sequence of self-contained blocks so
// a reader can stream (or a tool can skip) without decoding everything:
//
//	header (16 bytes): magic "TLBT", version 2, 3 reserved zero bytes,
//	                   little-endian uint64 record count (0 = until EOF)
//	block:             uint32 LE record count (1..65536)
//	                   uint32 LE payload length in bytes
//	                   payload
//	payload:           per record, two unsigned LEB128 varints:
//	                   zigzag(PC - prevPC), zigzag(VAddr - prevVAddr),
//	                   with prevPC = prevVAddr = 0 at the block start
//
// Deltas wrap modulo 2^64, so every (PC, VAddr) stream round-trips exactly.
// Because the first record of each block is encoded against zero, blocks
// decode independently: corruption is contained, and a counted file can be
// cut at any block boundary. The encoder is a pure function of the record
// stream and the (fixed) block size, so converting the same trace twice
// yields byte-identical files and a stable digest.

const (
	blockVersion = 2
	// blockRefs is the encoder's block capacity. 64K records keep block
	// headers negligible (<0.01% of the payload) while bounding decoder
	// state to one block.
	blockRefs = 1 << 16
	// maxVarint64 is the worst-case encoded size of one varint.
	maxVarint64 = 10
	// maxBlockPayload bounds a block's payload: two worst-case varints per
	// record. The reader rejects anything larger before allocating.
	maxBlockPayload = blockRefs * 2 * maxVarint64
	// countOffset is the byte offset of the header's record count, shared
	// by v1 and v2 (the headers are laid out identically).
	countOffset = 8
)

// zigzag folds a signed delta (carried in a wrapped uint64) into an
// unsigned value with small magnitudes near zero.
func zigzag(d uint64) uint64 { return (d << 1) ^ uint64(int64(d)>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) uint64 { return (u >> 1) ^ uint64(-int64(u&1)) }

// uvarintTail finishes decoding a varint whose first two bytes (shifts 0
// and 7) are already folded into v and whose second byte had the
// continuation bit set. It returns the value and the offset past the
// varint, or a negative offset on truncation or a varint longer than 64
// bits. Split out of the decode loop so the common one/two-byte cases
// stay call-free.
func uvarintTail(p []byte, off int, v uint64) (uint64, int) {
	for shift := uint(14); shift < 64; shift += 7 {
		if off >= len(p) {
			return 0, -1
		}
		c := p[off]
		off++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				return 0, -1 // overflows 64 bits
			}
			return v | uint64(c)<<shift, off
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, -1 // 10 bytes consumed, still continuing
}

// BlockWriter writes the v2 block format. Like BinaryWriter it emits a
// record count of 0 ("read until EOF") up front, which is the contract for
// pipes; writers backed by a seekable file should call FinishCount after
// the last record to patch the true count into the header. Flush (or
// FinishCount) must be called to emit the final partial block.
type BlockWriter struct {
	w       *bufio.Writer
	payload []byte
	nrefs   int
	prevPC  uint64
	prevVA  uint64
	count   uint64
}

// NewBlockWriter emits a v2 header with record count 0 and returns a
// streaming writer.
func NewBlockWriter(w io.Writer) (*BlockWriter, error) {
	bw := &BlockWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		payload: make([]byte, 0, 1<<16),
	}
	if _, err := bw.w.WriteString(binMagic); err != nil {
		return nil, err
	}
	header := [12]byte{blockVersion}
	if _, err := bw.w.Write(header[:]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Write implements Writer.
func (b *BlockWriter) Write(ref Ref) error {
	var tmp [2 * maxVarint64]byte
	n := binary.PutUvarint(tmp[:], zigzag(ref.PC-b.prevPC))
	n += binary.PutUvarint(tmp[n:], zigzag(ref.VAddr-b.prevVA))
	b.payload = append(b.payload, tmp[:n]...)
	b.prevPC, b.prevVA = ref.PC, ref.VAddr
	b.nrefs++
	b.count++
	if b.nrefs == blockRefs {
		return b.emitBlock()
	}
	return nil
}

// emitBlock writes the pending block and resets the encoder for the next
// one.
func (b *BlockWriter) emitBlock() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(b.nrefs))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(b.payload)))
	if _, err := b.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := b.w.Write(b.payload); err != nil {
		return err
	}
	b.payload = b.payload[:0]
	b.nrefs = 0
	b.prevPC, b.prevVA = 0, 0
	return nil
}

// Count returns the number of records written so far.
func (b *BlockWriter) Count() uint64 { return b.count }

// Flush emits the pending partial block (if any) and flushes buffered
// bytes to the underlying writer. A record written after a Flush starts a
// new block, so the byte output depends on where Flush lands in the
// stream; writers that need the canonical one-flush-at-the-end encoding
// (byte-identical conversion, stable digests) must call Flush or
// FinishCount exactly once, after the last record.
func (b *BlockWriter) Flush() error {
	if b.nrefs > 0 {
		if err := b.emitBlock(); err != nil {
			return err
		}
	}
	return b.w.Flush()
}

// FinishCount flushes like Flush and then patches the header's record
// count in place through at, which must address the start of the trace
// (the header at offset 0) — an *os.File opened for writing qualifies.
// Use it when the output is seekable; for pipes, stick with Flush and the
// EOF-terminated contract.
func (b *BlockWriter) FinishCount(at io.WriterAt) error {
	if err := b.Flush(); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], b.count)
	_, err := at.WriteAt(cnt[:], countOffset)
	return err
}

// BlockReader reads the v2 block format, decoding varints straight into
// the caller's slice.
type BlockReader struct {
	final
	r         *bufio.Reader
	remaining uint64 // records left per the header count
	counted   bool

	payload   []byte // current block's payload (reused across blocks)
	off       int    // decode position in payload
	blockLeft int    // records left in the current block
	prevPC    uint64
	prevVA    uint64
}

// NewBlockReader validates the v2 header and returns a streaming reader.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := &BlockReader{r: bufio.NewReaderSize(r, 1<<16)}
	count, err := readHeader(br.r, blockVersion)
	if err != nil {
		return nil, err
	}
	br.remaining = count
	br.counted = count != 0
	return br, nil
}

// loadBlock reads and validates the next block header and payload. It
// returns io.EOF at a clean end of the stream.
func (b *BlockReader) loadBlock() error {
	if b.counted && b.remaining == 0 {
		return io.EOF
	}
	var hdr [8]byte
	if _, err := io.ReadFull(b.r, hdr[:]); err != nil {
		if err == io.EOF {
			if b.counted {
				return fmt.Errorf("%w: %d records missing at EOF", ErrBadFormat, b.remaining)
			}
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: truncated block header", ErrBadFormat)
		}
		return err
	}
	nrefs := binary.LittleEndian.Uint32(hdr[0:4])
	plen := binary.LittleEndian.Uint32(hdr[4:8])
	if nrefs == 0 || nrefs > blockRefs {
		return fmt.Errorf("%w: block claims %d records (1..%d)", ErrBadFormat, nrefs, blockRefs)
	}
	if plen == 0 || plen > maxBlockPayload {
		return fmt.Errorf("%w: block claims a %d-byte payload (1..%d)", ErrBadFormat, plen, maxBlockPayload)
	}
	if b.counted {
		if uint64(nrefs) > b.remaining {
			return fmt.Errorf("%w: block of %d records exceeds the header count (%d left)", ErrBadFormat, nrefs, b.remaining)
		}
		b.remaining -= uint64(nrefs)
	}
	if cap(b.payload) < int(plen) {
		b.payload = make([]byte, plen)
	}
	b.payload = b.payload[:plen]
	if _, err := io.ReadFull(b.r, b.payload); err != nil {
		return fmt.Errorf("%w: truncated block payload", ErrBadFormat)
	}
	b.off = 0
	b.blockLeft = int(nrefs)
	b.prevPC, b.prevVA = 0, 0
	return nil
}

// ReadBatch implements BatchReader: it fills dst from as many blocks as
// needed, returning records before any error they precede (see the
// BatchReader contract).
func (b *BlockReader) ReadBatch(dst []Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if b.err != nil {
		return 0, b.err
	}
	n := 0
	for n < len(dst) {
		if b.blockLeft == 0 {
			if err := b.loadBlock(); err != nil {
				return b.stop(n, err)
			}
		}
		// Hot inner loop: varints decoded inline against local copies of
		// the decode state, written back once per block chunk. One- and
		// two-byte varints (small PC advances and strides, the
		// overwhelming majority) stay branch-local; longer ones fall to
		// uvarintTail.
		p := b.payload
		off := b.off
		pc, va := b.prevPC, b.prevVA
		left := b.blockLeft
		for n < len(dst) && left > 0 {
			if off >= len(p) {
				return b.fail(n, "corrupt PC varint")
			}
			dpc := uint64(p[off])
			off++
			if dpc >= 0x80 {
				if off >= len(p) {
					return b.fail(n, "corrupt PC varint")
				}
				c := p[off]
				off++
				dpc = dpc&0x7f | uint64(c&0x7f)<<7
				if c >= 0x80 {
					v, k := uvarintTail(p, off, dpc)
					if k < 0 {
						return b.fail(n, "corrupt PC varint")
					}
					dpc, off = v, k
				}
			}
			if off >= len(p) {
				return b.fail(n, "corrupt VAddr varint")
			}
			dva := uint64(p[off])
			off++
			if dva >= 0x80 {
				if off >= len(p) {
					return b.fail(n, "corrupt VAddr varint")
				}
				c := p[off]
				off++
				dva = dva&0x7f | uint64(c&0x7f)<<7
				if c >= 0x80 {
					v, k := uvarintTail(p, off, dva)
					if k < 0 {
						return b.fail(n, "corrupt VAddr varint")
					}
					dva, off = v, k
				}
			}
			pc += unzigzag(dpc)
			va += unzigzag(dva)
			dst[n] = Ref{PC: pc, VAddr: va}
			n++
			left--
		}
		b.off, b.prevPC, b.prevVA, b.blockLeft = off, pc, va, left
		if left == 0 && off != len(p) {
			return b.fail(n, "payload longer than its records")
		}
	}
	return n, nil
}

// fail ends the stream with a decode error, delivering the records
// decoded before it first when there are any.
func (b *BlockReader) fail(n int, msg string) (int, error) {
	return b.stop(n, fmt.Errorf("%w: %s", ErrBadFormat, msg))
}
