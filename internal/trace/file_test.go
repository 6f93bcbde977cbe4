package trace

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeBinaryTrace(t *testing.T, path string, refs []Ref) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewBinaryWriter(f)
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
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDigestFileStableAndContentSensitive(t *testing.T) {
	dir := t.TempDir()
	refs := []Ref{{PC: 0x400000, VAddr: 0x1000}, {PC: 0x400004, VAddr: 0x2000}}
	a := filepath.Join(dir, "a.trc")
	b := filepath.Join(dir, "b.trc")
	writeBinaryTrace(t, a, refs)
	writeBinaryTrace(t, b, refs)

	da, err := DigestFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DigestFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("same content at different paths digested differently: %s vs %s", da, db)
	}
	if da2, _ := DigestFile(a); da2 != da {
		t.Error("re-digesting the same file changed the digest")
	}

	writeBinaryTrace(t, b, []Ref{{PC: 0x400000, VAddr: 0x9000}})
	if db2, _ := DigestFile(b); db2 == da {
		t.Error("different content digested identically")
	}

	if _, err := DigestFile(filepath.Join(dir, "missing.trc")); err == nil {
		t.Error("digesting a missing file did not error")
	}
}

func TestOpenFileAutoDetectsFormat(t *testing.T) {
	dir := t.TempDir()
	refs := []Ref{{PC: 0x400000, VAddr: 0x1000}, {PC: 0x400004, VAddr: 0x2abc}}

	binPath := filepath.Join(dir, "bin.trc")
	writeBinaryTrace(t, binPath, refs)

	textPath := filepath.Join(dir, "text.txt")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	tw := NewTextWriter(tf)
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	for _, path := range []string{binPath, textPath} {
		r, closer, err := OpenFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var got []Ref
		for {
			ref, err := readOne(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			got = append(got, ref)
		}
		closer.Close()
		if len(got) != len(refs) {
			t.Fatalf("%s: read %d refs, want %d", path, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Errorf("%s: ref %d = %+v, want %+v", path, i, got[i], refs[i])
			}
		}
	}
}
