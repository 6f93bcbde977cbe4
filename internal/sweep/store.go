package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/stats"
)

// Result is one completed cell: its identity plus the measured counters.
// Timing is set only for cycle-model cells; Apps only for mix cells (one
// per-process attribution entry per mix member, scheduling order).
type Result struct {
	Key    Key              `json:"key"`
	Stats  sim.Stats        `json:"stats"`
	Apps   []sim.Stats      `json:"apps,omitempty"`
	Timing *sim.TimingStats `json:"timing,omitempty"`
}

// storeFile is the canonical single-document form of a store's contents:
// schema and provenance metadata in the header plus the full hash → result
// map. Bytes renders it for comparing stores; it is never written to disk
// (Save writes the sharded layout, and OpenStore rejects a file in this
// shape). encoding/json sorts map keys, so the serialized form is a
// canonical function of the store's contents.
type storeFile struct {
	Schema  int               `json:"schema"`
	Binary  string            `json:"binary,omitempty"`
	Results map[string]Result `json:"results"`
}

// binaryVersion stamps stores with the producing binary's module version
// (or VCS revision when built from a checkout) for provenance. It is
// deterministic for a given binary, so saving an unchanged store rewrites
// identical bytes.
func binaryVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			v += "+" + s.Value
			break
		}
	}
	return v
}

// Store is a content-addressed result cache: key hash → Result. It is safe
// for concurrent use by the Runner's workers. A Store may be purely
// in-memory (NewStore) or bound to a file (OpenStore + Save).
//
// A file-bound store is sharded on disk: the bound path holds the cell
// index (every key, plus the digest of each segment), and the payloads
// live in per-prefix segment files under "<path>.d/". The index alone is
// read at open; a segment is read only when a cell in its prefix is
// actually needed, so Get, Merge, GC, filtering and diffing are O(touched
// cells), not O(store).
type Store struct {
	mu     sync.Mutex
	saveMu sync.Mutex // serializes Saves: a checkpoint and a final save must not reorder
	path   string

	keys    map[string]Key    // the index: every cell's key, resident from open
	results map[string]Result // resident payloads (loaded segments + fresh Puts)
	loaded  map[string]bool   // prefix → its on-disk segment is fully resident
	dirty   map[string]bool   // prefix → differs from its on-disk segment
	segs    map[string]string // prefix → digest of its on-disk segment

	segReads  int // segment files read since open (instrumentation, see SegmentReads)
	segWrites int // segment files written since open (instrumentation, see SegmentWrites)
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	return &Store{
		keys:    make(map[string]Key),
		results: make(map[string]Result),
		loaded:  make(map[string]bool),
		dirty:   make(map[string]bool),
		segs:    make(map[string]string),
	}
}

// OpenStore binds a store to a file, loading its cell index when the file
// exists (a missing file is an empty store, not an error). Only the index
// is read — O(cells) of key metadata, no payloads; each segment is read,
// digest-verified and hash-checked only when one of its cells is first
// touched.
//
// The sharded index of the current KeySchema is the one format read. The
// store is a cache, so anything else — a monolithic file of any schema, an
// unknown layout, an older or newer schema — is rejected with an error
// that says to delete it or choose another store.
func OpenStore(path string) (*Store, error) {
	s := NewStore()
	s.path = path
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return s, nil
		}
		return nil, fmt.Errorf("sweep: reading store: %w", err)
	}
	var f struct {
		Schema   int               `json:"schema"`
		Layout   string            `json:"layout"`
		Segments map[string]string `json:"segments"`
		Keys     map[string]Key    `json:"keys"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("sweep: parsing store %s: %w", path, err)
	}
	if f.Layout == "" {
		return nil, fmt.Errorf("sweep: store %s (schema %d): monolithic layout unsupported: delete it or choose another -store",
			path, f.Schema)
	}
	if f.Layout != storeLayout {
		return nil, fmt.Errorf("sweep: store %s has layout %q, this binary speaks %q: delete it or choose another -store",
			path, f.Layout, storeLayout)
	}
	if f.Schema != KeySchema {
		return nil, fmt.Errorf("sweep: store %s has schema %d, this binary speaks %d: delete it or choose another -store",
			path, f.Schema, KeySchema)
	}
	for p, dig := range f.Segments {
		if _, err := hex.DecodeString(p); err != nil || len(p) != segPrefixLen {
			return nil, fmt.Errorf("sweep: store %s index names malformed segment prefix %q", path, p)
		}
		// The digest names the segment's file: it must be a SHA-256.
		if _, err := hex.DecodeString(dig); err != nil || len(dig) != 2*sha256.Size {
			return nil, fmt.Errorf("sweep: store %s index names malformed digest %q for segment %s", path, dig, p)
		}
	}
	for h, k := range f.Keys {
		if len(h) < segPrefixLen {
			return nil, fmt.Errorf("sweep: store %s index entry %q is not a key hash", path, h)
		}
		// A self-consistent cell from another schema hashes correctly (the
		// schema is part of the key), so check it explicitly: it must be
		// named as a schema problem, not surface later as a baffling cell
		// mismatch in -diff or a cache miss in a sweep.
		if k.Schema != KeySchema {
			return nil, fmt.Errorf("sweep: store %s entry %s declares key schema %d, this binary speaks %d: delete it or choose another -store",
				path, h, k.Schema, KeySchema)
		}
		if _, ok := f.Segments[segPrefix(h)]; !ok {
			return nil, fmt.Errorf("sweep: store %s index names cell %s but no segment covers prefix %s — corrupt or hand-edited",
				path, h, segPrefix(h))
		}
		s.keys[h] = k
	}
	for p, dig := range f.Segments {
		s.segs[p] = dig
	}
	return s, nil
}

// Len returns the number of stored results, from the index alone.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// Has reports whether a cell is present, from the index alone — no
// segment is read.
func (s *Store) Has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.keys[hash]
	return ok
}

// Get looks a result up by key hash. A miss is decided from the index
// without touching the disk; a hit reads (at most) the one segment file
// the hash's prefix names.
func (s *Store) Get(hash string) (Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(hash)
}

func (s *Store) getLocked(hash string) (Result, bool, error) {
	if r, ok := s.results[hash]; ok {
		return r, true, nil
	}
	if _, ok := s.keys[hash]; !ok {
		return Result{}, false, nil
	}
	if err := s.loadSegmentLocked(segPrefix(hash)); err != nil {
		return Result{}, false, err
	}
	r, ok := s.results[hash]
	if !ok {
		return Result{}, false, fmt.Errorf("sweep: store %s index names cell %s but its segment lacks it — corrupt or hand-edited",
			s.path, hash)
	}
	return r, true, nil
}

// Put records a result under its key's hash, replacing any previous value.
func (s *Store) Put(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := r.Key.Hash()
	s.results[h] = r
	s.keys[h] = r.Key
	s.dirty[segPrefix(h)] = true
}

// mergeConflictShown caps how many conflicting hashes a MergeConflictError
// renders (all of them are carried in Hashes).
const mergeConflictShown = 8

// MergeConflictError reports every cell in a merged batch whose payload
// diverged from the value already stored — two honest runs of one
// content-addressed cell can never disagree, so each one is evidence of
// simulator behaviour changing without a schema bump. Hashes holds every
// conflicting hash in batch order; Error renders the count plus the first
// mergeConflictShown of them.
type MergeConflictError struct {
	Hashes []string
}

// Error implements error.
func (e *MergeConflictError) Error() string {
	shown := e.Hashes
	more := ""
	if len(shown) > mergeConflictShown {
		more = fmt.Sprintf(" +%d more", len(shown)-mergeConflictShown)
		shown = shown[:mergeConflictShown]
	}
	short := make([]string, len(shown))
	for i, h := range shown {
		short[i] = fmt.Sprintf("%.12s…", h)
	}
	return fmt.Sprintf("sweep: merge conflict on %d cell(s) [%s%s]: a different payload is already stored (simulator behaviour changed without a schema bump?)",
		len(e.Hashes), strings.Join(short, " "), more)
}

// Merge records a batch of results under one lock acquisition — the
// coordinator's ingest path, where several workers' uploads race for the
// store. A cell already present with an identical payload is skipped
// (idempotent re-delivery after a lease expiry); a cell already present
// with a *different* payload is a conflict — Merge keeps the first-accepted
// value, merges the rest of the batch, and reports every conflicting cell
// in one *MergeConflictError, so a divergent worker is diagnosable in a
// single pass. Only the segments the batch's prefixes name are read.
func (s *Store) Merge(rs []Result) (added int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var conflicts []string
	for _, r := range rs {
		h := r.Key.Hash()
		old, ok, gerr := s.getLocked(h)
		if gerr != nil {
			return added, gerr
		}
		if !ok {
			s.results[h] = r
			s.keys[h] = r.Key
			s.dirty[segPrefix(h)] = true
			added++
			continue
		}
		co, errO := stats.Canonical(old)
		cn, errN := stats.Canonical(r)
		if errO != nil || errN != nil || !bytes.Equal(co, cn) {
			conflicts = append(conflicts, h)
		}
	}
	if len(conflicts) > 0 {
		err = &MergeConflictError{Hashes: conflicts}
	}
	return added, err
}

// IndexKeys returns every stored cell's key, sorted by key hash, from the
// index alone — no segment is read. This is the O(index) way to match
// filters or diagnose them without paying for payloads.
func (s *Store) IndexKeys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	hashes := s.sortedHashes(nil)
	out := make([]Key, len(hashes))
	for i, h := range hashes {
		out[i] = s.keys[h]
	}
	return out
}

// Results returns every stored result sorted by key hash — the same
// deterministic order the serialized form uses. Every segment is loaded;
// prefer IndexKeys or a Filter when the payloads are not all needed.
func (s *Store) Results() ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAllLocked(); err != nil {
		return nil, err
	}
	return s.resultsLocked(s.sortedHashes(nil))
}

// indexHashes returns every cell hash in sorted order, from the index
// alone.
func (s *Store) indexHashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sortedHashes(nil)
}

// matching returns the results of the cells whose key satisfies match,
// sorted by key hash. Only the segments holding them are read.
func (s *Store) matching(match func(Key) bool) ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultsLocked(s.sortedHashes(match))
}

// resultsLocked returns the results of the given indexed cells, reading
// each segment they name at most once. The caller holds s.mu.
func (s *Store) resultsLocked(hashes []string) ([]Result, error) {
	out := make([]Result, len(hashes))
	for i, h := range hashes {
		r, _, err := s.getLocked(h)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// sortedHashes is the one walk over the index: the hashes of the cells
// whose key satisfies match (every cell when match is nil), sorted. It
// reads no segment. The caller holds s.mu.
func (s *Store) sortedHashes(match func(Key) bool) []string {
	out := make([]string, 0, len(s.keys))
	for h, k := range s.keys {
		if match == nil || match(k) {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// Bytes serializes the store's full contents as one canonical storeFile
// document: a pure function of the cells — same results → identical bytes,
// regardless of insertion order or how many workers produced them. It is
// the store-equality currency for tests and tooling; Save does not write
// it (the sharded layout is the on-disk form).
func (s *Store) Bytes() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAllLocked(); err != nil {
		return nil, err
	}
	f := storeFile{Schema: KeySchema, Binary: binaryVersion(), Results: s.results}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GC drops every cell whose key hash is not in keep, returning how many
// were removed. Pair it with Grid.Jobs to shrink a store down to exactly
// the cells a current grid references. Only segments losing a strict
// subset of their cells are read; a fully dropped segment is unlinked at
// the next Save without ever being loaded.
func (s *Store) GC(keep map[string]bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byPrefix := make(map[string][]string)
	for h := range s.keys {
		if !keep[h] {
			p := segPrefix(h)
			byPrefix[p] = append(byPrefix[p], h)
		}
	}
	kept := make(map[string]int)
	for h := range s.keys {
		if keep[h] {
			kept[segPrefix(h)]++
		}
	}
	dropped := 0
	for p, drop := range byPrefix {
		if kept[p] > 0 {
			// Mixed segment: its survivors must be resident so Save can
			// rewrite it in full.
			if err := s.loadSegmentLocked(p); err != nil {
				return dropped, err
			}
		}
		for _, h := range drop {
			delete(s.keys, h)
			delete(s.results, h)
			dropped++
		}
		s.dirty[p] = true
	}
	return dropped, nil
}

// SegmentReads returns how many segment files were read since the store
// was opened — the instrumentation behind the O(touched segments) pins on
// filtering and single-cell lookups.
func (s *Store) SegmentReads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segReads
}

// SegmentWrites returns how many segment files were written since the
// store was opened — the instrumentation behind the dirty-segments-only
// checkpoint pin.
func (s *Store) SegmentWrites() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segWrites
}

// Segments returns how many on-disk segments the store currently
// references (0 for in-memory and never-saved stores).
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}
