package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// blockTestRefs builds a stream with the shapes real traces mix: strided
// PCs, small and large address deltas, backwards jumps, and full-range
// extremes that exercise the wrapping delta arithmetic.
func blockTestRefs(n int) []Ref {
	r := rand.New(rand.NewSource(42))
	refs := make([]Ref, n)
	pc, va := uint64(0x400000), uint64(0x7f0000000000)
	for i := range refs {
		switch r.Intn(10) {
		case 0:
			pc = r.Uint64()
			va = r.Uint64()
		case 1:
			va -= uint64(r.Intn(1 << 20))
		default:
			pc += uint64(4 * (1 + r.Intn(4)))
			va += uint64(r.Intn(4096))
		}
		refs[i] = Ref{PC: pc, VAddr: va}
	}
	return refs
}

func encodeBlock(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBlockRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, blockRefs - 1, blockRefs, blockRefs + 1, 3 * blockRefs} {
		refs := blockTestRefs(n)
		data := encodeBlock(t, refs)
		br, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := make([]Ref, 0, n)
		buf := make([]Ref, 777) // deliberately not a divisor of the block size
		for {
			k, err := br.ReadBatch(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got = append(got, buf[:k]...)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d refs", n, len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("n=%d: ref %d = %+v, want %+v", n, i, got[i], refs[i])
			}
		}
	}
}

func TestBlockExtremeValuesRoundTrip(t *testing.T) {
	refs := []Ref{
		{PC: 0, VAddr: 0},
		{PC: ^uint64(0), VAddr: ^uint64(0)},
		{PC: 0, VAddr: 1},
		{PC: 1 << 63, VAddr: ^uint64(0) - 1},
		{PC: ^uint64(0), VAddr: 0},
	}
	data := encodeBlock(t, refs)
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		got, err := readOne(br)
		if err != nil || got != want {
			t.Fatalf("ref %d: %+v, %v", i, got, err)
		}
	}
}

// TestBlockDeterministicEncoding pins the conversion contract: encoding
// the same stream twice yields byte-identical files.
func TestBlockDeterministicEncoding(t *testing.T) {
	refs := blockTestRefs(80_000)
	a := encodeBlock(t, refs)
	b := encodeBlock(t, refs)
	if !bytes.Equal(a, b) {
		t.Fatal("same stream encoded to different bytes")
	}
	// And it compresses: the whole point of the format.
	if len(a) >= len(refs)*16 {
		t.Fatalf("v2 encoding (%d bytes) not smaller than v1 (%d bytes)", len(a), len(refs)*16)
	}
}

func TestBlockFinishCountPatchesHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewBlockWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	refs := blockTestRefs(1000)
	for _, r := range refs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.FinishCount(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(data[countOffset:]); got != 1000 {
		t.Fatalf("header count = %d, want 1000", got)
	}
	// A counted file reads back exactly, and truncating it is detected.
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	buf := make([]Ref, 256)
	for {
		k, err := br.ReadBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += k
	}
	if n != 1000 {
		t.Fatalf("decoded %d refs, want 1000", n)
	}
	br2, err := NewBlockReader(bytes.NewReader(data[:len(data)-4]))
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	for {
		_, derr = br2.ReadBatch(buf)
		if derr != nil {
			break
		}
	}
	if !errors.Is(derr, ErrBadFormat) {
		t.Fatalf("truncated counted file: got %v, want ErrBadFormat", derr)
	}
}

func TestBinaryFinishCountPatchesHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewBinaryWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range blockTestRefs(7) {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.FinishCount(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(data[countOffset:]); got != 7 {
		t.Fatalf("header count = %d, want 7", got)
	}
	// Counted: a chopped final record is ErrBadFormat, not silent EOF.
	br, err := NewBinaryReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	for {
		if _, derr = readOne(br); derr != nil {
			break
		}
	}
	if !errors.Is(derr, ErrBadFormat) {
		t.Fatalf("truncated counted v1 file: got %v, want ErrBadFormat", derr)
	}
}

func TestBlockBadInputs(t *testing.T) {
	valid := encodeBlock(t, blockTestRefs(100))
	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"truncated header": valid[:10],
		"truncated block header": corrupt(func(b []byte) []byte {
			return b[:20]
		}),
		"truncated payload": corrupt(func(b []byte) []byte {
			return b[:len(b)-5]
		}),
		"zero-record block": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 0)
			return b
		}),
		"oversized record count": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], blockRefs+1)
			return b
		}),
		"oversized payload length": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], maxBlockPayload+1)
			return b
		}),
		"payload shorter than records": corrupt(func(b []byte) []byte {
			// Claim one more record than the payload encodes.
			n := binary.LittleEndian.Uint32(b[16:20])
			binary.LittleEndian.PutUint32(b[16:20], n+1)
			return b
		}),
		"payload longer than records": corrupt(func(b []byte) []byte {
			n := binary.LittleEndian.Uint32(b[16:20])
			binary.LittleEndian.PutUint32(b[16:20], n-1)
			return b
		}),
		"overlong varint": func() []byte {
			var buf bytes.Buffer
			buf.WriteString(binMagic)
			buf.Write([]byte{blockVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 1)
			binary.LittleEndian.PutUint32(hdr[4:8], 12)
			buf.Write(hdr[:])
			buf.Write(bytes.Repeat([]byte{0x80}, 11)) // never terminates
			buf.WriteByte(0)
			return buf.Bytes()
		}(),
	}
	for name, data := range cases {
		br, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s: open error %v, want ErrBadFormat", name, err)
			}
			continue
		}
		buf := make([]Ref, 64)
		var derr error
		for i := 0; i < 1<<16; i++ {
			if _, derr = br.ReadBatch(buf); derr != nil {
				break
			}
		}
		if !errors.Is(derr, ErrBadFormat) {
			t.Errorf("%s: got %v, want ErrBadFormat", name, derr)
		}
	}
}

func TestBlockUncountedStreamEOF(t *testing.T) {
	// Pipe mode: strip the count by re-encoding with no FinishCount (the
	// default) — a clean EOF at a block boundary ends the stream.
	refs := blockTestRefs(500)
	data := encodeBlock(t, refs)
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	buf := make([]Ref, 123)
	for {
		k, err := br.ReadBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got += k
	}
	if got != 500 {
		t.Fatalf("decoded %d refs, want 500", got)
	}
}

func TestBinaryReadBatchMatchesRead(t *testing.T) {
	refs := blockTestRefs(10_000)
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	for _, r := range refs {
		bw.Write(r)
	}
	bw.Flush()
	data := buf.Bytes()

	for _, counted := range []bool{false, true} {
		d := append([]byte(nil), data...)
		if counted {
			binary.LittleEndian.PutUint64(d[countOffset:], uint64(len(refs)))
		}
		br, err := NewBinaryReader(bytes.NewReader(d))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Ref, 0, len(refs))
		chunk := make([]Ref, 513)
		for {
			k, err := br.ReadBatch(chunk)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("counted=%v: %v", counted, err)
			}
			got = append(got, chunk[:k]...)
		}
		if len(got) != len(refs) {
			t.Fatalf("counted=%v: read %d refs, want %d", counted, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("counted=%v: ref %d mismatch", counted, i)
			}
		}
	}

	// A truncated tail: batch must deliver the whole records then error.
	d := data[:len(data)-7]
	br, err := NewBinaryReader(bytes.NewReader(d))
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	total := 0
	chunk := make([]Ref, 4096)
	for {
		k, err := br.ReadBatch(chunk)
		total += k
		if err != nil {
			derr = err
			break
		}
	}
	if !errors.Is(derr, ErrBadFormat) {
		t.Fatalf("truncated stream: got %v, want ErrBadFormat", derr)
	}
	if want := (len(data) - 7 - 16) / 16; total != want {
		t.Fatalf("delivered %d whole records before the error, want %d", total, want)
	}
}

func TestOpenFileAutoDetectsV2(t *testing.T) {
	dir := t.TempDir()
	refs := blockTestRefs(300)
	path := filepath.Join(dir, "v2.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewBlockWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		bw.Write(r)
	}
	if err := bw.FinishCount(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, closer, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, ok := r.(*BlockReader); !ok {
		t.Fatalf("OpenFile returned %T, want *BlockReader", r)
	}
	for i, want := range refs {
		got, err := readOne(r)
		if err != nil || got != want {
			t.Fatalf("ref %d: %+v, %v", i, got, err)
		}
	}
	if _, err := readOne(r); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}
