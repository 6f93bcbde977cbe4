package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"tlbprefetch/internal/prefetch"
)

// fuzzMech resolves a registry kind to a small, eviction-heavy geometry
// (32 rows, 2-way, 2 slots — tiny tables wrap and conflict constantly).
func fuzzMech(t testing.TB, kind string) prefetch.Prefetcher {
	m := Mech{Kind: kind, Rows: 32, Ways: 2, Slots: 2}.Normalize()
	if err := m.Validate(); err != nil {
		t.Fatalf("registry kind %q does not validate at the fuzz geometry: %v", kind, err)
	}
	return m.Build()
}

// FuzzOnMiss drives every registered mechanism with an arbitrary
// miss/hit/eviction interleaving decoded from the fuzz input and checks
// the OnMiss contract properties that the simulator relies on:
//
//   - predictions are appended to the caller's scratch buffer without
//     reallocating it (they never exceed the provided capacity);
//   - a mechanism never prefetches the page that triggered the miss;
//   - state survives arbitrary interleavings, including mid-stream
//     Resets, without panicking.
//
// The decoded stream respects the one invariant real miss streams have:
// consecutive misses are never the same page (a page that just filled the
// TLB cannot immediately miss again).
func FuzzOnMiss(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 1})
	f.Add([]byte{7, 1, 3, 0, 7, 1, 3, 0, 9, 2, 3, 128, 7, 1, 3, 0})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range Kinds() {
			p := fuzzMech(t, kind)
			if p == nil { // the "none" baseline
				continue
			}
			const scratchCap = 64
			scratch := make([]uint64, 0, scratchCap)
			var (
				lastVPN uint64
				hasLast bool
				ring    [8]uint64
				head    uint64
			)
			for i := 0; i+3 < len(data); i += 4 {
				// 16-bit page space: dense enough to revisit pages, small
				// enough to hammer every set of a 32-row table.
				vpn := uint64(data[i]) | uint64(data[i+1])<<8
				if hasLast && vpn == lastVPN {
					vpn = (vpn + 1) & 0xffff
				}
				ctrl := data[i+3]
				ev := prefetch.Event{
					VPN:       vpn,
					PC:        uint64(data[i+2] & 0x3f),
					BufferHit: ctrl&1 != 0,
				}
				if head >= uint64(len(ring)) {
					if evicted := ring[head%uint64(len(ring))]; evicted != vpn {
						ev.EvictedVPN, ev.HasEvicted = evicted, true
					}
				}
				ring[head%uint64(len(ring))] = vpn
				head++
				lastVPN, hasLast = vpn, true

				act := p.OnMiss(ev, scratch[:0])
				if n := len(act.Prefetches); n > 0 {
					if n > scratchCap {
						t.Fatalf("%s: %d predictions overflow the %d-entry scratch buffer", kind, n, scratchCap)
					}
					if &act.Prefetches[0] != &scratch[:1][0] {
						t.Fatalf("%s: predictions reallocated away from the caller's scratch buffer", kind)
					}
					for _, pfn := range act.Prefetches {
						if pfn == ev.VPN {
							t.Fatalf("%s: prefetched the triggering page %#x (predictions %v)", kind, ev.VPN, act.Prefetches)
						}
					}
				}
				if ctrl&0xc0 == 0xc0 {
					p.Reset()
				}
			}
		}
	})
}

// FuzzOpenStore writes arbitrary bytes at a store's index path, next to
// the segment files of a real saved store, and opens it. OpenStore must
// return an error or a usable store: every lookup, the full result scan,
// GC and Save then return errors rather than panic, and a store that
// saved reopens.
func FuzzOpenStore(f *testing.F) {
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "store.json")
	st, err := OpenStore(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	jobs, err := Grid{Workloads: []string{"swim", "mcf"}, Mechs: []Mech{{Kind: "RP"}}, Refs: 2_000}.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := (&Runner{Store: st}).Run(jobs); err != nil {
		f.Fatal(err)
	}
	if err := st.Save(); err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	segs := map[string][]byte{}
	ents, err := os.ReadDir(seedPath + ".d")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range ents {
		if segs[e.Name()], err = os.ReadFile(filepath.Join(seedPath+".d", e.Name())); err != nil {
			f.Fatal(err)
		}
	}

	// Durability is store_crash_test's subject; fsync per input would
	// only throttle the fuzzer.
	sync, dsync := saveSync, dirSync
	saveSync = func(*os.File) error { return nil }
	dirSync = func(*os.File) error { return nil }
	f.Cleanup(func() { saveSync, dirSync = sync, dsync })

	f.Add(index)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema": 3, "results": {}}`))
	f.Add([]byte(`{"schema":3,"layout":"sharded-v1","segments":{"..":"../../x"},"keys":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "store.json")
		if err := os.Mkdir(path+".d", 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range segs {
			if err := os.WriteFile(filepath.Join(path+".d", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path)
		if err != nil {
			return
		}
		st.Len()
		keep := map[string]bool{}
		for i, k := range st.IndexKeys() {
			h := k.Hash()
			st.Has(h)
			st.Get(h)
			keep[h] = i%2 == 0
		}
		for _, h := range st.indexHashes() {
			st.Get(h)
		}
		st.Results()
		if _, err := st.GC(keep); err != nil {
			return
		}
		if err := st.Save(); err != nil {
			return
		}
		if _, err := OpenStore(path); err != nil {
			t.Fatalf("saved store does not reopen: %v", err)
		}
	})
}

// FuzzLoadSegment puts arbitrary bytes in place of one segment of a real
// saved store and rewrites the index to name their digest, so the input
// passes the digest check and reaches the segment parser. Every lookup and
// the full result scan must return an error or only cells whose keys hash
// to the index hash they were looked up by — never a panic.
func FuzzLoadSegment(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "store.json")
	st, err := OpenStore(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	jobs, err := Grid{Workloads: []string{"swim", "mcf", "gzip"}, Mechs: []Mech{{Kind: "RP"}}, Refs: 2_000}.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := (&Runner{Store: st}).Run(jobs); err != nil {
		f.Fatal(err)
	}
	if err := st.Save(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	var index indexFile
	if err := json.Unmarshal(data, &index); err != nil {
		f.Fatal(err)
	}
	prefixes := make([]string, 0, len(index.Segments))
	segs := map[string][]byte{}
	for p, dig := range index.Segments {
		prefixes = append(prefixes, p)
		if segs[p], err = os.ReadFile(filepath.Join(seedPath+".d", segFileName(p, dig))); err != nil {
			f.Fatal(err)
		}
	}
	sort.Strings(prefixes)
	fuzzed := prefixes[0] // the segment the input replaces
	real := segs[fuzzed]

	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte{})
	f.Add(bytes.Replace(real, []byte(`"prefix": "`+fuzzed), []byte(`"prefix": "`+prefixes[1]), 1))
	f.Add(bytes.Replace(real, []byte(fmt.Sprintf(`"schema": %d`, KeySchema)), []byte(fmt.Sprintf(`"schema": %d`, KeySchema+1)), 1))
	f.Add(bytes.Replace(real, []byte(`"refs": 2000`), []byte(`"refs": 2001`), 1))
	f.Add(bytes.Replace(real, []byte(`"workload": "`), []byte(`"workload": "x`), 1))
	f.Fuzz(func(t *testing.T, input []byte) {
		path := filepath.Join(t.TempDir(), "store.json")
		if err := os.Mkdir(path+".d", 0o755); err != nil {
			t.Fatal(err)
		}
		idx := index
		idx.Segments = maps.Clone(index.Segments)
		idx.Segments[fuzzed] = digestOf(input)
		for p, dig := range idx.Segments {
			b := segs[p]
			if p == fuzzed {
				b = input
			}
			if err := os.WriteFile(filepath.Join(path+".d", segFileName(p, dig)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := json.Marshal(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path)
		if err != nil {
			t.Fatalf("a valid index does not open: %v", err)
		}
		hashes := slices.Sorted(maps.Keys(idx.Keys))
		for _, h := range hashes {
			r, ok, err := st.Get(h)
			if err == nil && ok && r.Key.Hash() != h {
				t.Fatalf("Get(%s) returned a cell whose key hashes to %s", h, r.Key.Hash())
			}
		}
		rs, err := st.Results()
		if err != nil {
			if bytes.Equal(input, real) {
				t.Fatalf("the real segment does not load: %v", err)
			}
			return
		}
		if len(rs) != len(hashes) {
			t.Fatalf("Results returned %d cells, the index names %d", len(rs), len(hashes))
		}
		for i, r := range rs {
			if got := r.Key.Hash(); got != hashes[i] {
				t.Fatalf("Results()[%d] key hashes to %s, index hash %s", i, got, hashes[i])
			}
		}
	})
}
