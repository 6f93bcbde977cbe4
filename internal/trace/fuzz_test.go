package trace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// FuzzBinaryReader feeds arbitrary bytes to the binary trace reader: it
// must either reject the input or terminate cleanly, never panic or loop,
// and read the same stream at any dst size.
func FuzzBinaryReader(f *testing.F) {
	// Seed: a valid 2-record trace, a truncated one, garbage.
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.Write(Ref{PC: 1, VAddr: 4096})
	bw.Write(Ref{PC: 2, VAddr: 8192})
	bw.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	f.Add([]byte("TLBT garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := NewBinaryReader(bytes.NewReader(data)); err != nil {
			return
		}
		checkChunkingInvariant(t, data, func() BatchReader {
			br, _ := NewBinaryReader(bytes.NewReader(data))
			return br
		})
	})
}

// FuzzTextReader feeds arbitrary text to the text trace reader, which must
// terminate and read the same stream at any dst size.
func FuzzTextReader(f *testing.F) {
	f.Add("0x10 0x20\n")
	f.Add("# comment\n\nff 1000\n")
	f.Add("not hex at all\n")
	f.Add("0x10")
	f.Add("ffffffffffffffffffff 0\n")

	f.Fuzz(func(t *testing.T, data string) {
		checkChunkingInvariant(t, []byte(data), func() BatchReader {
			return NewTextReader(strings.NewReader(data))
		})
	})
}

// FuzzBlockReader feeds arbitrary bytes to the v2 block decoder: it must
// either reject the input with ErrBadFormat (truncated blocks, corrupt
// varints, bad block headers) or terminate cleanly — never panic, loop, or
// read past the payload a block header declared.
func FuzzBlockReader(f *testing.F) {
	// Seeds: a valid 3-record trace, a truncated payload, a corrupt block
	// header, an overlong varint, garbage, the bare header.
	var buf bytes.Buffer
	bw, _ := NewBlockWriter(&buf)
	bw.Write(Ref{PC: 1, VAddr: 4096})
	bw.Write(Ref{PC: ^uint64(0), VAddr: 1 << 44})
	bw.Write(Ref{PC: 2, VAddr: 8192})
	bw.Flush()
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-2]...))
	hdr := append([]byte(nil), valid[:16]...)
	f.Add(hdr)
	f.Add(append(append([]byte(nil), valid[:16]...), 0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0, 1, 2, 3, 4))
	f.Add(append(append([]byte(nil), valid[:16]...),
		1, 0, 0, 0, 12, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0))
	f.Add([]byte("TLBT\x02 garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := NewBlockReader(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("open error not ErrBadFormat: %v", err)
			}
			return
		}
		refs, derr := checkChunkingInvariant(t, data, func() BatchReader {
			br, _ := NewBlockReader(bytes.NewReader(data))
			return br
		})
		if derr != io.EOF && !errors.Is(derr, ErrBadFormat) {
			t.Fatalf("decode error not ErrBadFormat: %v", derr)
		}
		// The decoder must never yield more records than fit in the input
		// at ~1 byte per varint pair minimum.
		if len(refs) > len(data) {
			t.Fatalf("decoded %d records from %d input bytes", len(refs), len(data))
		}
	})
}

// checkChunkingInvariant drains a fresh reader from open at dst sizes 1
// and 4096. Both must yield the same references and end with the same
// error; no call may return records alongside an error, a nil error
// without records, or more calls than data has bytes (no record is
// shorter than one byte). It returns the references and the final error.
func checkChunkingInvariant(t *testing.T, data []byte, open func() BatchReader) ([]Ref, error) {
	t.Helper()
	drain := func(size int) ([]Ref, error) {
		r := open()
		dst := make([]Ref, size)
		var got []Ref
		for calls := 0; calls <= len(data)+1; calls++ {
			n, err := r.ReadBatch(dst)
			if err != nil {
				if n != 0 {
					t.Fatalf("dst %d: %d records returned alongside error %v", size, n, err)
				}
				return got, err
			}
			if n == 0 {
				t.Fatalf("dst %d: nil error without records", size)
			}
			got = append(got, dst[:n]...)
		}
		t.Fatalf("dst %d: no end after %d calls on %d bytes", size, len(data)+2, len(data))
		return nil, nil
	}
	one, err1 := drain(1)
	many, errMany := drain(4096)
	if !slices.Equal(one, many) {
		t.Fatalf("dst 1 read %d records, dst 4096 read %d (or they differ)", len(one), len(many))
	}
	if err1.Error() != errMany.Error() {
		t.Fatalf("final error at dst 1 %q, at dst 4096 %q", err1, errMany)
	}
	return one, err1
}

// FuzzBlockRoundTrip: any reference stream survives a v2 write/read cycle,
// and re-encoding the decoded stream reproduces the bytes.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint64(1))
	f.Add(^uint64(0), uint64(1), uint64(0), ^uint64(0))
	f.Add(uint64(1)<<63, uint64(1)<<44, uint64(3), uint64(1)<<63)

	f.Fuzz(func(t *testing.T, pc1, va1, pc2, va2 uint64) {
		refs := []Ref{{PC: pc1, VAddr: va1}, {PC: pc2, VAddr: va2}}
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
		bw.Flush()
		first := append([]byte(nil), buf.Bytes()...)
		br, err := NewBlockReader(bytes.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		bw2, _ := NewBlockWriter(&buf2)
		n, err := CopyBatch(bw2, br)
		if err != nil || n != 2 {
			t.Fatalf("decode: n=%d, %v", n, err)
		}
		bw2.Flush()
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatal("re-encoding the decoded stream changed the bytes")
		}
	})
}

// FuzzRoundTrip: any (pc, vaddr) pairs survive a binary write/read cycle.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(1))

	f.Fuzz(func(t *testing.T, pc, va uint64) {
		var buf bytes.Buffer
		bw, err := NewBinaryWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(Ref{PC: pc, VAddr: va}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		br, err := NewBinaryReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readOne(br)
		if err != nil || got.PC != pc || got.VAddr != va {
			t.Fatalf("round trip: %+v, %v", got, err)
		}
	})
}
