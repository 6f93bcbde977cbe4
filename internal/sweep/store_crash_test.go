package sweep

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// resetSaveSeams restores the durability seams after an injection test.
func resetSaveSeams() {
	saveWrite = func(f *os.File, data []byte) (int, error) { return f.Write(data) }
	saveSync = func(f *os.File) error { return f.Sync() }
	saveRename = os.Rename
	dirSync = func(d *os.File) error { return d.Sync() }
}

// failNth arms one durability seam to fail on its nth call (1-based) and
// returns a pointer reporting whether the injection fired. Covering every
// step means sweeping n upward until a save runs clean — the caller loops
// until the injection stops firing.
func failNth(t *testing.T, seam string, n int) *bool {
	t.Helper()
	fired := new(bool)
	calls := 0
	hit := func() error {
		calls++
		if calls == n {
			*fired = true
			return errors.New("injected I/O failure")
		}
		return nil
	}
	switch seam {
	case "write":
		saveWrite = func(f *os.File, data []byte) (int, error) {
			if err := hit(); err != nil {
				return 0, err
			}
			return f.Write(data)
		}
	case "sync":
		saveSync = func(f *os.File) error {
			if err := hit(); err != nil {
				return err
			}
			return f.Sync()
		}
	case "rename":
		saveRename = func(old, new string) error {
			if err := hit(); err != nil {
				return err
			}
			return os.Rename(old, new)
		}
	case "dirsync":
		dirSync = func(d *os.File) error {
			if err := hit(); err != nil {
				return err
			}
			return d.Sync()
		}
	default:
		t.Fatalf("unknown seam %q", seam)
	}
	return fired
}

// checkStoreComplete reopens a path and asserts it is a complete store: it
// opens, every indexed cell's payload loads, and the cell count is one of
// the allowed sizes (the old store before the commit point, the new one
// after — never anything in between, never a torn file).
func checkStoreComplete(t *testing.T, path string, wantLens ...int) {
	t.Helper()
	st, err := OpenStore(path)
	if err != nil {
		t.Fatalf("store unopenable after failed save: %v", err)
	}
	rs, err := st.Results()
	if err != nil {
		t.Fatalf("store incomplete after failed save: %v", err)
	}
	ok := false
	for _, w := range wantLens {
		ok = ok || len(rs) == w
	}
	if !ok {
		t.Fatalf("store has %d cells after failed save, want one of %v", len(rs), wantLens)
	}
}

// TestSaveCrashLeavesStoreComplete injects a failure into every durability
// step of Save — each temp-file write, fsync, rename and directory fsync in
// turn — for both save shapes (the cold first save of a store with no index
// and no segment directory yet, and an incremental one-cell checkpoint), and
// asserts the invariant the layout's atomicity argument rests on: after any
// failed save the on-disk store is the old complete store (empty, for the
// cold save) or the new complete store, and a clean retry lands the new one.
func TestSaveCrashLeavesStoreComplete(t *testing.T) {
	defer resetSaveSeams()
	jobs, err := shardGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := (&Runner{Workers: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	shapes := []struct {
		name  string
		setup func(t *testing.T) (*Store, string, []int) // store ready to Save; path; allowed cell counts
	}{
		{"cold", func(t *testing.T) (*Store, string, []int) {
			path := filepath.Join(t.TempDir(), "store.json")
			st, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				st.Put(r)
			}
			return st, path, []int{0, 16}
		}},
		{"incremental", func(t *testing.T) (*Store, string, []int) {
			path := savedShardStore(t)
			st, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			extra := results[0]
			extra.Key.Seed = 424242
			st.Put(extra)
			return st, path, []int{16, 17}
		}},
	}

	for _, shape := range shapes {
		for _, seam := range []string{"write", "sync", "rename", "dirsync"} {
			for n := 1; ; n++ {
				st, path, lens := shape.setup(t)
				fired := failNth(t, seam, n)
				err := st.Save()
				resetSaveSeams()
				if !*fired {
					// Past the last call of this seam: the save ran clean.
					if err != nil {
						t.Fatalf("%s/%s: uninjected save failed: %v", shape.name, seam, err)
					}
					break
				}
				if err == nil {
					t.Fatalf("%s/%s call %d: injected failure did not surface", shape.name, seam, n)
				}
				checkStoreComplete(t, path, lens...)
				// The failed save restored its dirty marks: a clean retry on
				// the same store lands the new state in full.
				if err := st.Save(); err != nil {
					t.Fatalf("%s/%s call %d: retry after failure: %v", shape.name, seam, n, err)
				}
				checkStoreComplete(t, path, lens[len(lens)-1])
			}
		}
	}
}

// TestSyncDirPropagatesRealErrors is the durability bugfix pin: syncDir
// must tolerate only the "directory fsync unsupported" errnos (EINVAL,
// ENOTSUP) and propagate everything else — a checkpoint that swallows a
// real I/O failure is claiming durability it does not have.
func TestSyncDirPropagatesRealErrors(t *testing.T) {
	defer resetSaveSeams()
	dir := t.TempDir()

	dirSync = func(d *os.File) error { return syscall.EIO }
	if err := syncDir(dir); err == nil {
		t.Fatal("syncDir swallowed EIO")
	}
	dirSync = func(d *os.File) error { return errors.New("device vanished") }
	if err := syncDir(dir); err == nil {
		t.Fatal("syncDir swallowed a generic I/O error")
	}
	for _, tolerated := range []error{syscall.EINVAL, syscall.ENOTSUP} {
		dirSync = func(d *os.File) error { return tolerated }
		if err := syncDir(dir); err != nil {
			t.Fatalf("syncDir rejected %v (fsync-unsupported must be tolerated): %v", tolerated, err)
		}
	}
	resetSaveSeams()
	if err := syncDir(filepath.Join(dir, "no-such-dir")); err == nil {
		t.Fatal("syncDir swallowed the open error")
	}

	// End to end: a store whose directory cannot fsync for a real reason
	// must fail its Save; one refusing with EINVAL must still save.
	path := filepath.Join(dir, "store.json")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := shardGrid().Jobs()
	rs, _, err := (&Runner{}).Run(jobs[:1])
	if err != nil {
		t.Fatal(err)
	}
	st.Put(rs[0])
	dirSync = func(d *os.File) error { return syscall.EIO }
	if err := st.Save(); err == nil {
		t.Fatal("Save swallowed a directory-fsync failure")
	}
	dirSync = func(d *os.File) error { return syscall.EINVAL }
	if err := st.Save(); err != nil {
		t.Fatalf("Save failed on an fsync-unsupported filesystem: %v", err)
	}
	resetSaveSeams()
	checkStoreComplete(t, path, 1)
}

// armSeamsToFail makes every durability seam fail the test: a Save that
// must touch no file may call none of them.
func armSeamsToFail(t *testing.T, what string) {
	t.Helper()
	fail := func(seam string) error {
		t.Errorf("%s called %s", what, seam)
		return errors.New("unexpected write")
	}
	saveWrite = func(*os.File, []byte) (int, error) { return 0, fail("saveWrite") }
	saveSync = func(*os.File) error { return fail("saveSync") }
	saveRename = func(string, string) error { return fail("saveRename") }
	dirSync = func(*os.File) error { return fail("dirSync") }
}

// TestCleanSaveTouchesNoFile pins the warm re-run's save: a reopened store
// whose cells were only read (a fully cached re-run) saves without calling
// any durability seam, and one Put makes the next Save write again.
func TestCleanSaveTouchesNoFile(t *testing.T) {
	defer resetSaveSeams()
	path := savedShardStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := shardGrid().Jobs()
	results, sum, err := (&Runner{Store: st}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != len(jobs) {
		t.Fatalf("re-run recomputed cells: %+v", sum)
	}
	armSeamsToFail(t, "Save of an unchanged store")
	if err := st.Save(); err != nil {
		t.Fatalf("clean save: %v", err)
	}
	resetSaveSeams()

	extra := results[0]
	extra.Key.Seed = 424242
	st.Put(extra)
	renames := 0
	saveRename = func(old, new string) error {
		renames++
		return os.Rename(old, new)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if renames == 0 {
		t.Fatal("Save after a Put wrote nothing")
	}
	checkStoreComplete(t, path, len(jobs)+1)
}

// TestFirstSaveWritesEmptyIndex: a store opened on a missing path has no
// index on disk yet, so its first Save writes one even with no cells — a
// later open finds an empty store, not a missing file — and only then is
// a further Save of the unchanged store free.
func TestFirstSaveWritesEmptyIndex(t *testing.T) {
	defer resetSaveSeams()
	path := filepath.Join(t.TempDir(), "store.json")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first Save of an empty store wrote no index: %v", err)
	}
	checkStoreComplete(t, path, 0)
	armSeamsToFail(t, "second Save of an unchanged empty store")
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
}
