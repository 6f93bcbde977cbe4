package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"tlbprefetch/internal/sim"
)

// storeLayout names the sharded on-disk format a file-bound store writes:
// the bound path holds the index (schema, binary stamp, per-prefix segment
// digests, and every cell's key), and the payloads live in content-
// addressed per-prefix segment files under "<path>.d/". A cell's key is
// stored once, in the index; a segment holds only the payloads, compactly
// encoded. Both the index and each segment serialize through
// encoding/json's sorted-map canonical form, so the whole layout is a pure
// function of the store's contents — same cells → identical index bytes
// and an identical segment directory, regardless of worker count or
// insertion order.
const storeLayout = "sharded-v2"

// segPrefixLen is how many leading hex digits of a cell's key hash name
// its segment: 2 digits partition a store into at most 256 segments, so a
// million-cell store checkpoints and filters in ~4k-cell units.
const segPrefixLen = 2

// segPrefix returns the segment a key hash belongs to.
func segPrefix(hash string) string { return hash[:segPrefixLen] }

// segFileName renders a segment's content-addressed file name. The digest
// (of the serialized segment bytes) is part of the name, so a new version
// of a segment never overwrites the old one in place: the previous file
// stays valid until the index stops referencing it and Save prunes it.
func segFileName(prefix, digest string) string {
	return prefix + "-" + digest[:16] + ".seg"
}

// segDir returns the directory the store's segment files live in.
func (s *Store) segDir() string { return s.path + ".d" }

// indexFile is the on-disk index layout at the store's bound path.
type indexFile struct {
	Schema   int               `json:"schema"`
	Layout   string            `json:"layout"`
	Binary   string            `json:"binary,omitempty"`
	Segments map[string]string `json:"segments"`
	Keys     map[string]Key    `json:"keys"`
}

// segmentFile is the on-disk layout of one segment: the payloads of every
// cell whose key hash starts with Prefix, by key hash. The keys themselves
// live only in the index.
type segmentFile struct {
	Schema  int                    `json:"schema"`
	Prefix  string                 `json:"prefix"`
	Results map[string]segmentCell `json:"results"`
}

// segmentCell is a Result without its key: what a segment stores per cell.
type segmentCell struct {
	Stats  sim.Stats        `json:"stats"`
	Apps   []sim.Stats      `json:"apps,omitempty"`
	Timing *sim.TimingStats `json:"timing,omitempty"`
}

// encodeSegment serializes one segment canonically (compact, sorted map
// keys — same cells, same bytes).
func encodeSegment(prefix string, cells map[string]Result) ([]byte, error) {
	f := segmentFile{Schema: KeySchema, Prefix: prefix, Results: make(map[string]segmentCell, len(cells))}
	for h, r := range cells {
		f.Results[h] = segmentCell{Stats: r.Stats, Apps: r.Apps, Timing: r.Timing}
	}
	return json.Marshal(f)
}

// digestOf is the content address of a serialized segment.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// loadSegmentLocked makes a prefix's on-disk cells resident (mu held),
// each joined with its key from the index. The segment's bytes are
// verified against the digest the index committed, its schema and prefix
// against the index's, and every cell's index key against the cell's hash,
// so neither a tampered segment, a stale one, nor a tampered index key can
// satisfy a lookup. Cells already resident (a fresh Put racing ahead of
// the load) win over the on-disk value; cells on disk that the index no
// longer names (dropped by GC, not yet saved) are skipped.
func (s *Store) loadSegmentLocked(p string) error {
	if s.loaded[p] {
		return nil
	}
	dig, ok := s.segs[p]
	if !ok || s.path == "" {
		s.loaded[p] = true
		return nil
	}
	name := filepath.Join(s.segDir(), segFileName(p, dig))
	data, err := os.ReadFile(name)
	if err != nil {
		return fmt.Errorf("sweep: store %s: reading segment %s: %w", s.path, filepath.Base(name), err)
	}
	s.segReads++
	if got := digestOf(data); got != dig {
		return fmt.Errorf("sweep: store %s: segment %s hashes to %.12s…, index expects %.12s… — corrupt or hand-edited",
			s.path, filepath.Base(name), got, dig)
	}
	var f segmentFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("sweep: store %s: parsing segment %s: %w", s.path, filepath.Base(name), err)
	}
	if f.Schema != KeySchema || f.Prefix != p {
		return fmt.Errorf("sweep: store %s: segment %s declares schema %d prefix %q, want %d %q — corrupt or hand-edited",
			s.path, filepath.Base(name), f.Schema, f.Prefix, KeySchema, p)
	}
	for h, c := range f.Results {
		k, named := s.keys[h]
		if !named {
			continue // dropped from the index (GC) but not yet saved
		}
		if segPrefix(h) != p {
			return fmt.Errorf("sweep: store %s: segment %s holds cell %s outside its prefix — corrupt or hand-edited",
				s.path, filepath.Base(name), h)
		}
		if got := k.Hash(); got != h {
			return fmt.Errorf("sweep: store %s entry %s does not hash to its key (%s) — corrupt or hand-edited",
				s.path, h, got)
		}
		if _, resident := s.results[h]; !resident {
			s.results[h] = Result{Key: k, Stats: c.Stats, Apps: c.Apps, Timing: c.Timing}
		}
	}
	s.loaded[p] = true
	return nil
}

// loadAllLocked makes every on-disk segment resident (mu held).
func (s *Store) loadAllLocked() error {
	for p := range s.segs {
		if err := s.loadSegmentLocked(p); err != nil {
			return err
		}
	}
	return nil
}

// Test seams: the crash-during-save suite injects a failure at each
// durability step (temp write, file fsync, rename, directory fsync) and
// asserts the previous store survives complete.
var (
	saveWrite  = func(f *os.File, data []byte) (int, error) { return f.Write(data) }
	saveSync   = func(f *os.File) error { return f.Sync() }
	saveRename = os.Rename
	dirSync    = func(d *os.File) error { return d.Sync() }
)

// Save writes the store's sharded layout to its bound path atomically and
// durably. Only dirty segments — prefixes whose cells changed since the
// last save — are serialized and written (content-addressed under
// "<path>.d/", each fsynced before its rename); then the index lands over
// the bound path via the same temp+fsync+rename dance, the parent
// directory is fsynced, and segment files the new index no longer
// references are pruned. A crash at any point leaves either the old
// complete store or the new complete store — never a torn file, never a
// rename the filesystem forgot, at worst a few unreferenced segment files
// the next writing Save removes.
//
// A clean store — nothing dirty, and the bound path already holding its
// index because it was opened from it or written by an earlier Save —
// touches no file at all. A store opened on a missing path writes its
// index on its first Save, even when it holds no cells.
//
// Saves are serialized against each other (a periodic checkpoint racing a
// final save must not let older bytes land last), and the snapshot is
// taken under the results lock, so a concurrent Merge is either fully in
// or fully out. Saving an in-memory store is a no-op.
func (s *Store) Save() error {
	if s.path == "" {
		return nil
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()

	// Snapshot: every dirty prefix must be fully resident so its segment
	// can be rewritten whole, then the cells, index and dirty set are taken
	// under the lock. The dirty marks move out of the store here — a Put
	// landing mid-save re-dirties its prefix for the next checkpoint — and
	// move back on failure so no change is ever silently dropped.
	s.mu.Lock()
	if len(s.dirty) == 0 && s.onDisk {
		s.mu.Unlock()
		return nil
	}
	for p := range s.dirty {
		if err := s.loadSegmentLocked(p); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	dirty := s.dirty
	s.dirty = make(map[string]bool)
	keys := make(map[string]Key, len(s.keys))
	for h, k := range s.keys {
		keys[h] = k
	}
	snaps := make(map[string]map[string]Result, len(dirty))
	for p := range dirty {
		snaps[p] = make(map[string]Result)
	}
	for h, r := range s.results {
		if m, ok := snaps[segPrefix(h)]; ok {
			if _, named := s.keys[h]; named {
				m[h] = r
			}
		}
	}
	segs := make(map[string]string, len(s.segs))
	for p, d := range s.segs {
		segs[p] = d
	}
	s.mu.Unlock()

	restoreDirty := func() {
		s.mu.Lock()
		for p := range dirty {
			s.dirty[p] = true
		}
		s.mu.Unlock()
	}

	prefixes := make([]string, 0, len(dirty))
	for p := range dirty {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	wroteSeg := false
	for _, p := range prefixes {
		cells := snaps[p]
		if len(cells) == 0 {
			delete(segs, p)
			continue
		}
		data, err := encodeSegment(p, cells)
		if err != nil {
			restoreDirty()
			return err
		}
		dig := digestOf(data)
		if segs[p] == dig {
			continue // marked dirty but content-identical: nothing to write
		}
		wrote, err := s.writeSegment(p, dig, data)
		if err != nil {
			restoreDirty()
			return err
		}
		segs[p] = dig
		wroteSeg = wroteSeg || wrote
	}
	if wroteSeg {
		if err := syncDir(s.segDir()); err != nil {
			restoreDirty()
			return err
		}
	}

	if err := s.writeIndex(segs, keys); err != nil {
		restoreDirty()
		return err
	}
	if err := s.pruneSegments(segs); err != nil {
		restoreDirty()
		return err
	}

	s.mu.Lock()
	s.segs = segs
	s.onDisk = true
	s.mu.Unlock()
	return nil
}

// writeSegment lands one segment file durably under its content address.
// A file already carrying the digest's name is the same content — nothing
// to do (and how an unchanged segment costs nothing across checkpoints).
func (s *Store) writeSegment(prefix, digest string, data []byte) (wrote bool, err error) {
	dir := s.segDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, fmt.Errorf("sweep: saving store: %w", err)
	}
	name := filepath.Join(dir, segFileName(prefix, digest))
	if _, err := os.Stat(name); err == nil {
		return false, nil
	}
	if err := writeDurably(dir, ".seg-*", name, 0o644, data); err != nil {
		return false, fmt.Errorf("sweep: saving store segment %s: %w", filepath.Base(name), err)
	}
	s.mu.Lock()
	s.segWrites++
	s.mu.Unlock()
	return true, nil
}

// writeIndex lands the index over the store's bound path durably: temp
// file, fsync, rename, parent-directory fsync. The rename is the commit
// point of the whole Save.
func (s *Store) writeIndex(segs map[string]string, keys map[string]Key) error {
	f := indexFile{Schema: KeySchema, Layout: storeLayout, Binary: binaryVersion(), Segments: segs, Keys: keys}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	// CreateTemp makes the file 0600; keep the existing store's mode (or a
	// conventional 0644) so the rename does not silently tighten it.
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(s.path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := writeDurably(dir, ".sweep-store-*", s.path, mode, buf.Bytes()); err != nil {
		return fmt.Errorf("sweep: saving store: %w", err)
	}
	return syncDir(dir)
}

// writeDurably lands data at name through a temp file in dir: create,
// chmod, write, fsync, close, rename, each step through the crash-test
// seams. On failure the temp file is removed and name is untouched.
func writeDurably(dir, pattern, name string, mode os.FileMode, data []byte) error {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	err = tmp.Chmod(mode)
	if err == nil {
		_, err = saveWrite(tmp, data)
	}
	if err == nil {
		err = saveSync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = saveRename(tmp.Name(), name)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// pruneSegments removes segment files the just-committed index does not
// reference: superseded segment versions, segments emptied by GC, and temp
// files a crashed save left behind. Running after the index rename, a
// crash before (or during) the prune leaves only unreferenced extras — the
// committed store is already complete without them.
func (s *Store) pruneSegments(segs map[string]string) error {
	dir := s.segDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("sweep: saving store: %w", err)
	}
	keep := make(map[string]bool, len(segs))
	for p, dig := range segs {
		keep[segFileName(p, dig)] = true
	}
	for _, e := range ents {
		if keep[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("sweep: pruning store segment %s: %w", e.Name(), err)
		}
	}
	if len(segs) == 0 {
		os.Remove(dir) // best-effort: an empty store needs no segment dir
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Filesystems that cannot fsync a directory report EINVAL or
// ENOTSUP — those are tolerated (the rename itself already happened, only
// its crash-durability is weaker); every other error propagates, because a
// checkpoint that claims durability must not swallow a real I/O failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sweep: syncing directory: %w", err)
	}
	defer d.Close()
	if err := dirSync(d); err != nil && !fsyncUnsupported(err) {
		return fmt.Errorf("sweep: syncing directory %s: %w", dir, err)
	}
	return nil
}

// fsyncUnsupported reports the errnos a filesystem uses to refuse
// directory fsync outright (as opposed to failing it).
func fsyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}
