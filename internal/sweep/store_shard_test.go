package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardGrid is the 16-cell grid the sharded-layout tests run: big enough to
// spread cells across many segment prefixes, small enough to stay fast.
func shardGrid() Grid {
	return Grid{
		Workloads:  []string{"swim", "mcf"},
		Mechs:      []Mech{{Kind: "RP"}, {Kind: "SP"}},
		TLBEntries: []int{64, 128},
		Buffers:    []int{8, 16},
		Refs:       5_000,
	}
}

// savedShardStore runs shardGrid into a file-bound store, saves it, and
// returns the path.
func savedShardStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.json")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := shardGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&Runner{Store: st, Workers: 4}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedRoundTrip pins the sharded layout end to end: Save writes an
// index at the bound path plus a segment directory, the reopened store
// satisfies the same grid entirely from cache, and the canonical bytes
// survive the trip.
func TestShardedRoundTrip(t *testing.T) {
	path := savedShardStore(t)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"layout": "sharded-v2"`, `"schema": 3`, `"segments"`, `"keys"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("index missing %s", want)
		}
	}
	if strings.Contains(string(data), `"stats"`) {
		t.Error("index carries payloads — cells belong in segments")
	}
	ents, err := os.ReadDir(path + ".d")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".seg") {
			t.Errorf("unexpected file %s in segment dir", e.Name())
		}
		seg, err := os.ReadFile(filepath.Join(path+".d", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Keys live in the index only, and a segment is compact JSON.
		if bytes.Contains(seg, []byte(`"key"`)) {
			t.Errorf("segment %s carries keys — they belong in the index", e.Name())
		}
		if bytes.ContainsAny(seg, "\n\t") || bytes.Contains(seg, []byte("  ")) {
			t.Errorf("segment %s is indented, want compact JSON", e.Name())
		}
	}

	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 16 {
		t.Fatalf("reopened store has %d cells, want 16", re.Len())
	}
	if got := re.Segments(); got != len(ents) {
		t.Fatalf("index references %d segments, dir holds %d", got, len(ents))
	}
	jobs, _ := shardGrid().Jobs()
	if _, sum, err := (&Runner{Store: re}).Run(jobs); err != nil {
		t.Fatal(err)
	} else if sum.Cached != len(jobs) || sum.Ran != 0 {
		t.Fatalf("reopened store recomputed cells: %+v", sum)
	}

	st, _ := OpenStore(path)
	b1, err := st.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := re.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("store changed across save/load")
	}
}

// TestSelectReadsOnlyMatchingSegments is the O(touched cells) acceptance
// pin: a filter loads exactly the segments its matching cells' key-hash
// prefixes name — a strict subset of the store.
func TestSelectReadsOnlyMatchingSegments(t *testing.T) {
	path := savedShardStore(t)
	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFilter("workload=swim")
	if err != nil {
		t.Fatal(err)
	}
	wantPrefixes := map[string]bool{}
	for _, k := range re.IndexKeys() {
		if f.Match(k) {
			wantPrefixes[segPrefix(k.Hash())] = true
		}
	}
	if re.SegmentReads() != 0 {
		t.Fatalf("open + IndexKeys read %d segments, want 0", re.SegmentReads())
	}
	sel, err := f.Select(re)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 8 {
		t.Fatalf("selected %d cells, want 8", len(sel))
	}
	if got := re.SegmentReads(); got != len(wantPrefixes) {
		t.Fatalf("Select read %d segments, want %d (the matched prefixes)", got, len(wantPrefixes))
	}
	if len(wantPrefixes) >= re.Segments() {
		t.Fatalf("filter touched all %d segments — grid no longer pins the subset property", re.Segments())
	}
}

// TestSingleCellRerunReadsOneSegment pins the other acceptance lookup: a
// cached single-cell re-run (and a raw Get) reads exactly the one segment
// its hash prefix names, and a miss is decided from the index with no reads.
func TestSingleCellRerunReadsOneSegment(t *testing.T) {
	path := savedShardStore(t)
	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := shardGrid().Jobs()
	if _, sum, err := (&Runner{Store: re}).Run(jobs[:1]); err != nil {
		t.Fatal(err)
	} else if sum.Cached != 1 {
		t.Fatalf("single-cell re-run missed the cache: %+v", sum)
	}
	if got := re.SegmentReads(); got != 1 {
		t.Fatalf("single-cell re-run read %d segments, want 1", got)
	}
	// A second lookup in the same prefix is already resident.
	if _, ok, err := re.Get(jobs[0].Key().Hash()); err != nil || !ok {
		t.Fatalf("cached cell lookup failed: ok=%v err=%v", ok, err)
	}
	if got := re.SegmentReads(); got != 1 {
		t.Fatalf("resident lookup re-read the segment (%d reads)", got)
	}
	// A miss never touches the disk.
	if _, ok, err := re.Get(strings.Repeat("f", 64)); err != nil || ok {
		t.Fatalf("phantom cell: ok=%v err=%v", ok, err)
	}
	if got := re.SegmentReads(); got != 1 {
		t.Fatalf("index miss read a segment (%d reads)", got)
	}
}

// TestShardedSaveDeterministic pins byte-determinism across worker counts:
// 1-worker and 8-worker sweeps of the same grid produce an identical index
// file and an identical segment directory.
func TestShardedSaveDeterministic(t *testing.T) {
	dir := t.TempDir()
	jobs, err := shardGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{filepath.Join(dir, "w1.json"), filepath.Join(dir, "w8.json")}
	for i, workers := range []int{1, 8} {
		st, err := OpenStore(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := (&Runner{Store: st, Workers: workers}).Run(jobs); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(); err != nil {
			t.Fatal(err)
		}
	}
	b1, _ := os.ReadFile(paths[0])
	b2, _ := os.ReadFile(paths[1])
	if !bytes.Equal(b1, b2) {
		t.Fatal("1-worker and 8-worker index files differ")
	}
	e1, err := os.ReadDir(paths[0] + ".d")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := os.ReadDir(paths[1] + ".d")
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(e2) {
		t.Fatalf("segment dirs differ: %d vs %d files", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].Name() != e2[i].Name() {
			t.Fatalf("segment file %d: %s vs %s", i, e1[i].Name(), e2[i].Name())
		}
		s1, _ := os.ReadFile(filepath.Join(paths[0]+".d", e1[i].Name()))
		s2, _ := os.ReadFile(filepath.Join(paths[1]+".d", e2[i].Name()))
		if !bytes.Equal(s1, s2) {
			t.Fatalf("segment %s differs between worker counts", e1[i].Name())
		}
	}
}

// TestCheckpointWritesOnlyDirtySegments pins the incremental-save contract
// sweepd's periodic checkpoint depends on: a save after one new cell writes
// exactly one segment file (the dirty prefix) — not the whole store — and a
// save with nothing dirty writes none.
func TestCheckpointWritesOnlyDirtySegments(t *testing.T) {
	path := savedShardStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing dirty: nothing written.
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if got := st.SegmentWrites(); got != 0 {
		t.Fatalf("clean save wrote %d segments, want 0", got)
	}

	jobs, _ := shardGrid().Jobs()
	fresh := jobs[0]
	fresh.Seed = 98765 // a cell the store does not have
	res, _, err := (&Runner{}).Run([]Job{fresh})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(res[0])
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if got := st.SegmentWrites(); got != 1 {
		t.Fatalf("one-cell checkpoint wrote %d segments, want 1", got)
	}
	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 17 {
		t.Fatalf("store has %d cells after checkpoint, want 17", re.Len())
	}
	if _, ok, err := re.Get(res[0].Key.Hash()); err != nil || !ok {
		t.Fatalf("checkpointed cell missing: ok=%v err=%v", ok, err)
	}
}

// TestGCDropsWholePrefixesWithoutReads pins GC's laziness: dropping every
// cell of a store needs no segment reads at all (whole segments are
// unlinked, not loaded), and the shrunken store survives a save.
func TestGCDropsWholePrefixesWithoutReads(t *testing.T) {
	path := savedShardStore(t)
	re, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := shardGrid().Jobs()
	keep := map[string]bool{jobs[0].Key().Hash(): true}
	dropped, err := re.GC(keep)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 15 {
		t.Fatalf("GC dropped %d cells, want 15", dropped)
	}
	// Only the kept cell's segment could have needed a read (it survives a
	// mixed prefix); every fully dropped segment stays untouched.
	if got := re.SegmentReads(); got > 1 {
		t.Fatalf("GC read %d segments, want at most 1", got)
	}
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(path + ".d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != re.Segments() {
		t.Fatalf("segment dir holds %d files, index references %d", len(ents), re.Segments())
	}
	after, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != 1 {
		t.Fatalf("store has %d cells after GC+save, want 1", after.Len())
	}
	if _, ok, err := after.Get(jobs[0].Key().Hash()); err != nil || !ok {
		t.Fatalf("kept cell lost: ok=%v err=%v", ok, err)
	}
}
