package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// contractRefs is long enough to span two v2 blocks (65536 records each).
const contractRefs = 70_000

// contractCase is one BatchReader implementation over one input. want is
// every whole record the input holds; a damaged input (bad) delivers
// exactly want and then ends in a final error instead of io.EOF.
type contractCase struct {
	name string
	want []trace.Ref
	bad  bool
	open func() trace.BatchReader
}

// TestBatchReaderContract checks every BatchReader implementation against
// the contract documented on BatchReader, at dst sizes that split records
// one at a time, unevenly, and in whole chunks.
func TestBatchReaderContract(t *testing.T) {
	for _, c := range contractCases(t) {
		for _, size := range []int{1, 3, 4096} {
			t.Run(fmt.Sprintf("%s/dst%d", c.name, size), func(t *testing.T) {
				checkContract(t, c, size)
			})
		}
	}
}

func checkContract(t *testing.T, c contractCase, size int) {
	r := c.open()
	if n, err := r.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty dst before the first record = %d, %v; want 0, nil", n, err)
	}
	if cl, ok := r.(io.Closer); ok {
		defer cl.Close()
	}
	dst := make([]trace.Ref, size)
	var (
		got []trace.Ref
		end error
	)
	for end == nil {
		n, err := r.ReadBatch(dst)
		switch {
		case n > 0 && err != nil:
			t.Fatalf("%d records returned alongside %v", n, err)
		case n == 0 && err == nil:
			t.Fatal("(0, nil) from a non-empty dst")
		case n > size:
			t.Fatalf("wrote %d records into a dst of %d", n, size)
		}
		got = append(got, dst[:n]...)
		end = err
		if n, err := r.ReadBatch(dst[:0]); n != 0 || err != nil {
			t.Fatalf("empty dst after %d records = %d, %v; want 0, nil", len(got), n, err)
		}
	}
	if !slices.Equal(got, c.want) {
		t.Fatalf("read %d records, want the %d written (or they differ)", len(got), len(c.want))
	}
	if !c.bad {
		if end != io.EOF {
			t.Fatalf("stream ended with %v, want io.EOF", end)
		}
		return
	}
	if end == io.EOF {
		t.Fatal("damaged input ended with io.EOF, want its error")
	}
	for i := 0; i < 3; i++ {
		if n, err := r.ReadBatch(dst); n != 0 || err == nil || err.Error() != end.Error() {
			t.Fatalf("call %d after %q = %d, %v; want the same error again", i+1, end, n, err)
		}
	}
}

// contractCases encodes one workload stream in every format, intact and
// damaged.
func contractCases(t *testing.T) []contractCase {
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf workload")
	}
	var sw trace.SliceWriter
	if _, err := workload.GenerateTo(w, contractRefs, &sw); err != nil {
		t.Fatal(err)
	}
	refs := sw.Refs
	head := func(n int) []trace.Ref { return refs[:n] }

	v1 := encode(t, refs, false, func(w io.Writer) (writer, error) { return trace.NewBinaryWriter(w) })
	v1Counted := encode(t, refs, true, func(w io.Writer) (writer, error) { return trace.NewBinaryWriter(w) })
	v2 := encode(t, refs, false, func(w io.Writer) (writer, error) { return trace.NewBlockWriter(w) })
	v2Counted := encode(t, refs, true, func(w io.Writer) (writer, error) { return trace.NewBlockWriter(w) })
	text := encode(t, refs, false, func(w io.Writer) (writer, error) { return trace.NewTextWriter(w), nil })

	// The last byte of a v2 file ends the last record's VAddr varint; a
	// continuation bit there runs the varint off the payload.
	v2Varint := slices.Clone(v2)
	v2Varint[len(v2Varint)-1] |= 0x80
	// A malformed line in the middle of a text trace.
	var badText bytes.Buffer
	tw := trace.NewTextWriter(&badText)
	for _, r := range refs[:contractRefs/2] {
		tw.Write(r)
	}
	tw.Flush()
	badText.WriteString("0x10 not-hex\n")
	badText.Write(text)

	binary := func(data []byte) func() trace.BatchReader {
		return func() trace.BatchReader {
			r, err := trace.NewBinaryReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	block := func(data []byte) func() trace.BatchReader {
		return func() trace.BatchReader {
			r, err := trace.NewBlockReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	textOf := func(data []byte) func() trace.BatchReader {
		return func() trace.BatchReader { return trace.NewTextReader(bytes.NewReader(data)) }
	}
	return []contractCase{
		{name: "slice", want: refs, open: func() trace.BatchReader { return trace.NewSliceReader(refs) }},
		{name: "workload.Stream", want: refs, open: func() trace.BatchReader { return workload.NewStream(w, contractRefs) }},
		{name: "v1", want: refs, open: binary(v1)},
		{name: "v1-counted", want: refs, open: binary(v1Counted)},
		{name: "v2", want: refs, open: block(v2)},
		{name: "v2-counted", want: refs, open: block(v2Counted)},
		{name: "text", want: refs, open: textOf(text)},

		{name: "v1-cut-mid-record", want: head(contractRefs - 1), bad: true, open: binary(v1[:len(v1)-5])},
		{name: "v1-counted-cut-mid-record", want: head(contractRefs - 1), bad: true, open: binary(v1Counted[:len(v1Counted)-5])},
		{name: "v1-counted-short", want: head(contractRefs - 1), bad: true, open: binary(v1Counted[:len(v1Counted)-16])},
		{name: "v2-corrupt-varint", want: head(contractRefs - 1), bad: true, open: block(v2Varint)},
		{name: "v2-cut-payload", want: head(1 << 16), bad: true, open: block(v2[:len(v2)-5])},
		{name: "text-malformed-line", want: head(contractRefs / 2), bad: true, open: textOf(badText.Bytes())},
	}
}

// writer is the encoder side every trace format shares.
type writer interface {
	Write(trace.Ref) error
	Flush() error
}

// encode writes refs with the encoder newW returns. counted goes through a
// file so FinishCount can patch the record count into the header.
func encode(t *testing.T, refs []trace.Ref, counted bool, newW func(io.Writer) (writer, error)) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := newW(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if counted {
		err = w.(interface{ FinishCount(io.WriterAt) error }).FinishCount(f)
	} else {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
