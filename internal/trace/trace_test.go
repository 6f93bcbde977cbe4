package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// readOne reads a single reference through a one-slot ReadBatch.
func readOne(r BatchReader) (Ref, error) {
	var one [1]Ref
	if _, err := r.ReadBatch(one[:]); err != nil {
		return Ref{}, err
	}
	return one[0], nil
}

func TestSliceReaderWriter(t *testing.T) {
	refs := []Ref{{1, 2}, {3, 4}, {5, 6}}
	r := NewSliceReader(refs)
	var w SliceWriter
	n, err := CopyBatch(&w, r)
	if err != nil || n != 3 {
		t.Fatalf("CopyBatch = %d,%v", n, err)
	}
	if len(w.Refs) != 3 || w.Refs[1] != (Ref{3, 4}) {
		t.Fatalf("copied %v", w.Refs)
	}
	if _, err := readOne(r); err != io.EOF {
		t.Fatal("expected EOF")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	refs := []Ref{{0x401000, 0x7fff0000}, {0, 0}, {^uint64(0), 1}}
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf)
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
	if bw.Count() != 3 {
		t.Fatalf("Count = %d", bw.Count())
	}

	br, err := NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		got, err := readOne(br)
		if err != nil || got != want {
			t.Fatalf("record %d: %v, %v", i, got, err)
		}
	}
	if _, err := readOne(br); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("NOPE00000000000000")); err == nil {
		t.Fatal("accepted bad magic")
	}
}

func TestBinaryShortHeader(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("TL")); err == nil {
		t.Fatal("accepted short header")
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.Write(Ref{1, 2})
	bw.Flush()
	data := buf.Bytes()[:buf.Len()-5] // chop the last record
	br, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(br); err == nil {
		t.Fatal("accepted truncated record")
	}
}

func TestTextRoundTrip(t *testing.T) {
	refs := []Ref{{0x401000, 0x7fff0000}, {0xdead, 0xbeef}}
	var buf bytes.Buffer
	tw := NewTextWriter(&buf)
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	tw.Flush()

	tr := NewTextReader(&buf)
	for i, want := range refs {
		got, err := readOne(tr)
		if err != nil || got != want {
			t.Fatalf("record %d: %v, %v", i, got, err)
		}
	}
	if _, err := readOne(tr); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n0x10 0x20\n   \n# another\nff 1000\n"
	tr := NewTextReader(strings.NewReader(in))
	got1, err := readOne(tr)
	if err != nil || got1 != (Ref{0x10, 0x20}) {
		t.Fatalf("first = %v,%v", got1, err)
	}
	got2, err := readOne(tr)
	if err != nil || got2 != (Ref{0xff, 0x1000}) {
		t.Fatalf("second = %v,%v (no-0x prefix form)", got2, err)
	}
	if _, err := readOne(tr); err != io.EOF {
		t.Fatal("expected EOF")
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"justone\n",
		"0x10 0x20 0x30\n",
		"zz 0x10\n",
		"0x10 0xzz\n",
	}
	for _, in := range cases {
		tr := NewTextReader(strings.NewReader(in))
		if _, err := readOne(tr); err == nil || err == io.EOF {
			t.Errorf("input %q: expected parse error, got %v", in, err)
		}
	}
}

func TestParseHexOverflow(t *testing.T) {
	if _, err := parseHex("1ffffffffffffffff"); err == nil {
		t.Fatal("accepted 17-hex-digit overflow")
	}
	v, err := parseHex("ffffffffffffffff")
	if err != nil || v != ^uint64(0) {
		t.Fatalf("max value: %x, %v", v, err)
	}
}

// Property: binary round trip preserves arbitrary records.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(pcs, vas []uint64) bool {
		n := len(pcs)
		if len(vas) < n {
			n = len(vas)
		}
		refs := make([]Ref, n)
		for i := 0; i < n; i++ {
			refs[i] = Ref{PC: pcs[i], VAddr: vas[i]}
		}
		var buf bytes.Buffer
		bw, err := NewBinaryWriter(&buf)
		if err != nil {
			return false
		}
		for _, r := range refs {
			if bw.Write(r) != nil {
				return false
			}
		}
		bw.Flush()
		br, err := NewBinaryReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range refs {
			got, err := readOne(br)
			if err != nil || got != want {
				return false
			}
		}
		_, err = readOne(br)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	bw, _ := NewBinaryWriter(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.Write(Ref{PC: uint64(i), VAddr: uint64(i) << 12})
	}
	bw.Flush()
}
