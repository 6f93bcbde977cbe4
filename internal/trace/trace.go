// Package trace defines the memory-reference record that drives the
// simulator, plus readers and writers for binary and text trace files.
//
// The paper drove its simulations from SimpleScalar (sim-cache) and Shade;
// both deliver a stream of (instruction address, data address) pairs to the
// memory hierarchy. Our record carries exactly the fields the prefetching
// mechanisms can legally observe: the program counter (ASP indexes its table
// by PC) and the data virtual address (everything else). Synthetic workloads
// and recorded trace files are interchangeable behind the BatchReader
// interface, the only way references are read.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Ref is a single data memory reference.
type Ref struct {
	PC    uint64 // address of the referencing instruction
	VAddr uint64 // virtual data address referenced
}

// Writer consumes a stream of references.
type Writer interface {
	Write(Ref) error
}

// SliceWriter accumulates references in memory.
type SliceWriter struct {
	Refs []Ref
}

// Write implements Writer.
func (w *SliceWriter) Write(ref Ref) error {
	w.Refs = append(w.Refs, ref)
	return nil
}

// --- Binary format v1 -----------------------------------------------------
//
// Header: magic "TLBT" (4 bytes), version byte (1), 3 reserved zero bytes,
// then little-endian uint64 record count. Records: PC and VAddr as
// little-endian uint64 (16 bytes each record). Version 2 of the format
// (block-structured, delta-encoded) lives in block.go.

const (
	binMagic   = "TLBT"
	binVersion = 1
)

// ErrBadFormat reports a malformed binary trace.
var ErrBadFormat = errors.New("trace: malformed binary trace")

// BinaryWriter writes the v1 binary trace format.
//
// The header's record count is written as 0 up front, which by contract
// means "read until EOF". That is the pipe mode: a BinaryWriter draining
// into a non-seekable sink (a pipe, a socket, a compressor) simply ends the
// stream at EOF, and BinaryReader accepts that as a clean end as long as
// the final record is complete. When the destination is seekable — a plain
// file — call FinishCount after the last record instead of Flush: it
// patches the true count into the header, so readers detect truncated
// files instead of silently accepting them.
type BinaryWriter struct {
	w     *bufio.Writer
	count uint64
}

// NewBinaryWriter emits a header with record count 0 (meaning "read until
// EOF" — the pipe mode described on BinaryWriter) and returns a streaming
// writer.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	bw := &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := bw.w.WriteString(binMagic); err != nil {
		return nil, err
	}
	header := [12]byte{binVersion}
	if _, err := bw.w.Write(header[:]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Write implements Writer.
func (b *BinaryWriter) Write(ref Ref) error {
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:8], ref.PC)
	binary.LittleEndian.PutUint64(rec[8:16], ref.VAddr)
	if _, err := b.w.Write(rec[:]); err != nil {
		return err
	}
	b.count++
	return nil
}

// Count returns the number of records written so far.
func (b *BinaryWriter) Count() uint64 { return b.count }

// Flush flushes buffered records to the underlying writer.
func (b *BinaryWriter) Flush() error { return b.w.Flush() }

// FinishCount flushes buffered records and then patches the header's
// record count in place through at, which must address the start of the
// trace (the header at offset 0) — an *os.File opened for writing
// qualifies. Use it when the output is seekable; for pipes, stick with
// Flush and the EOF-terminated contract documented on BinaryWriter.
func (b *BinaryWriter) FinishCount(at io.WriterAt) error {
	if err := b.Flush(); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], b.count)
	_, err := at.WriteAt(cnt[:], countOffset)
	return err
}

// BinaryReader reads the binary trace format.
type BinaryReader struct {
	final
	r         *bufio.Reader
	remaining uint64
	counted   bool   // header carried a nonzero count
	scratch   []byte // bulk-read buffer
}

// NewBinaryReader validates the header and returns a streaming reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
	count, err := readHeader(br.r, binVersion)
	if err != nil {
		return nil, err
	}
	br.remaining = count
	br.counted = count != 0
	return br, nil
}

// readHeader reads the 16-byte header v1 and v2 share (magic, version,
// record count), checks the magic and that the version is want, and
// returns the record count (0 means "read until EOF").
func readHeader(r io.Reader, want byte) (uint64, error) {
	var header [16]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if string(header[0:4]) != binMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadFormat, header[0:4])
	}
	if header[4] != want {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, header[4])
	}
	return binary.LittleEndian.Uint64(header[countOffset:]), nil
}

// ReadBatch implements BatchReader: one bulk read decodes up to len(dst)
// records.
func (b *BinaryReader) ReadBatch(dst []Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if b.err != nil {
		return 0, b.err
	}
	want := len(dst)
	if b.counted {
		if b.remaining == 0 {
			return b.stop(0, io.EOF)
		}
		if uint64(want) > b.remaining {
			want = int(b.remaining)
		}
	}
	if cap(b.scratch) < want*16 {
		b.scratch = make([]byte, want*16)
	}
	nb, err := io.ReadFull(b.r, b.scratch[:want*16])
	full := nb / 16
	for i := 0; i < full; i++ {
		rec := b.scratch[i*16 : i*16+16]
		dst[i] = Ref{
			PC:    binary.LittleEndian.Uint64(rec[0:8]),
			VAddr: binary.LittleEndian.Uint64(rec[8:16]),
		}
	}
	if b.counted {
		b.remaining -= uint64(full)
	}
	switch {
	case err == nil:
		return full, nil
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return b.stop(full, err)
	case nb%16 != 0 || b.counted:
		// A partial record, or fewer records than the counted header
		// promised.
		return b.stop(full, fmt.Errorf("%w: truncated record", ErrBadFormat))
	default:
		// Uncounted stream ending at a record boundary: clean EOF.
		return b.stop(full, io.EOF)
	}
}

// --- Text format ----------------------------------------------------------
//
// One reference per line: "<pc-hex> <vaddr-hex>", e.g. "0x401000 0x7f001234".
// Lines starting with '#' and blank lines are ignored. Addresses may omit
// the 0x prefix.

// TextWriter writes the human-readable trace format.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter returns a streaming text writer.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write implements Writer.
func (t *TextWriter) Write(ref Ref) error {
	_, err := fmt.Fprintf(t.w, "0x%x 0x%x\n", ref.PC, ref.VAddr)
	return err
}

// Flush flushes buffered output.
func (t *TextWriter) Flush() error { return t.w.Flush() }

// TextReader reads the text trace format.
type TextReader struct {
	final
	sc   *bufio.Scanner
	line int
}

// NewTextReader returns a streaming text reader.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &TextReader{sc: sc}
}

// ReadBatch implements BatchReader, parsing one line per reference. A
// malformed line ends the stream with an error naming the line.
func (t *TextReader) ReadBatch(dst []Ref) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if t.err != nil {
		return 0, t.err
	}
	n := 0
	for n < len(dst) && t.sc.Scan() {
		t.line++
		line := strings.TrimSpace(t.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ref, err := parseLine(line)
		if err != nil {
			return t.stop(n, fmt.Errorf("trace: line %d: %v", t.line, err))
		}
		dst[n] = ref
		n++
	}
	if n == len(dst) {
		return n, nil
	}
	if err := t.sc.Err(); err != nil {
		return t.stop(n, err)
	}
	return t.stop(n, io.EOF)
}

// parseLine parses one non-blank, non-comment line.
func parseLine(line string) (Ref, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return Ref{}, fmt.Errorf("want 2 fields, got %d", len(fields))
	}
	pc, err := parseHex(fields[0])
	if err != nil {
		return Ref{}, fmt.Errorf("pc: %v", err)
	}
	va, err := parseHex(fields[1])
	if err != nil {
		return Ref{}, fmt.Errorf("vaddr: %v", err)
	}
	return Ref{PC: pc, VAddr: va}, nil
}

func parseHex(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	if s == "" {
		return 0, errors.New("empty number")
	}
	var v uint64
	for _, c := range s {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad hex digit %q", c)
		}
		if v > (^uint64(0))>>4 {
			return 0, errors.New("overflow")
		}
		v = v<<4 | d
	}
	return v, nil
}
