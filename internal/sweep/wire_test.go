package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wireTestResults runs a tiny grid and returns its results.
func wireTestResults(t *testing.T) []Result {
	t.Helper()
	g := Grid{
		Workloads: []string{"swim"},
		Mechs:     []Mech{{Kind: "RP"}, {Kind: "SP"}},
		Refs:      5_000,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := (&Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestSealOpenRoundTrip(t *testing.T) {
	results := wireTestResults(t)
	wc, err := SealResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(wc.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q is not 64 hex chars", wc.Fingerprint)
	}
	back, err := wc.Open()
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats != results[0].Stats || back.Key.Hash() != results[0].Key.Hash() {
		t.Fatal("seal/open changed the result")
	}

	corrupt := wc
	corrupt.Result.Stats.BufferHits++
	if _, err := corrupt.Open(); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("corrupted payload opened (err=%v)", err)
	}
}

// TestWireResultJSONRoundTrip pins the transport encoding the protocol
// actually ships (WireResult inside a JSON request body): a sealed cell
// survives marshal/unmarshal exactly, and one corrupted in transit fails
// verification on the receiving side.
func TestWireResultJSONRoundTrip(t *testing.T) {
	results := wireTestResults(t)
	sealed := make([]WireResult, len(results))
	for i, r := range results {
		var err error
		if sealed[i], err = SealResult(r); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	var back []WireResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		r, err := back[i].Open()
		if err != nil {
			t.Fatalf("cell %d failed verification after the wire: %v", i, err)
		}
		if r.Stats != results[i].Stats {
			t.Fatalf("cell %d changed across the wire", i)
		}
	}

	// Corruption in transit: flip a counter inside the serialized bytes.
	tampered := bytes.Replace(data, []byte(`"Misses":`), []byte(`"Misses":1`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found")
	}
	var bad []WireResult
	if err := json.Unmarshal(tampered, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := bad[0].Open(); err == nil {
		t.Fatal("cell corrupted in transit opened without error")
	}
}

func TestStoreMerge(t *testing.T) {
	results := wireTestResults(t)
	st := NewStore()
	added, err := st.Merge(results)
	if err != nil || added != len(results) {
		t.Fatalf("first merge: added=%d err=%v", added, err)
	}
	// Idempotent re-delivery: nothing added, no error, bytes unchanged.
	before, _ := st.Bytes()
	added, err = st.Merge(results)
	if err != nil || added != 0 {
		t.Fatalf("re-merge: added=%d err=%v", added, err)
	}
	after, _ := st.Bytes()
	if string(before) != string(after) {
		t.Fatal("idempotent merge changed the store bytes")
	}
	// A divergent payload under an existing hash is a conflict: the first
	// value wins and the conflict is reported.
	divergent := results[0]
	divergent.Stats.Misses += 99
	if _, err := st.Merge([]Result{divergent}); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("divergent merge accepted (err=%v)", err)
	}
	kept, _, _ := st.Get(results[0].Key.Hash())
	if kept.Stats != results[0].Stats {
		t.Fatal("conflict replaced the first-accepted value")
	}
}

// TestStoreMergeReportsEveryConflict pins the multi-conflict contract: a
// batch carrying several divergent cells reports all of them in one typed
// error, not just the first.
func TestStoreMergeReportsEveryConflict(t *testing.T) {
	g := Grid{
		Workloads:  []string{"swim", "mcf"},
		Mechs:      []Mech{{Kind: "RP"}, {Kind: "SP"}},
		TLBEntries: []int{64, 128},
		Refs:       5_000,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := (&Runner{}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	if _, err := st.Merge(results); err != nil {
		t.Fatal(err)
	}

	// A batch with three divergent cells, one identical re-delivery and one
	// fresh cell interleaved: every divergence is reported, the rest merge.
	batch := make([]Result, 0, 5)
	wantConflicts := []string{}
	for _, i := range []int{0, 2, 5} {
		d := results[i]
		d.Stats.Misses += 99
		batch = append(batch, d)
		wantConflicts = append(wantConflicts, d.Key.Hash())
	}
	batch = append(batch, results[1]) // idempotent re-delivery
	fresh := results[3]
	fresh.Key.Seed = 12345 // a different cell entirely
	batch = append(batch, fresh)

	added, err := st.Merge(batch)
	if added != 1 {
		t.Fatalf("merge added %d cells, want 1 (the fresh one)", added)
	}
	var mc *MergeConflictError
	if !errors.As(err, &mc) {
		t.Fatalf("merge error %T is not *MergeConflictError: %v", err, err)
	}
	if len(mc.Hashes) != 3 {
		t.Fatalf("conflict error names %d cells, want 3: %v", len(mc.Hashes), mc.Hashes)
	}
	for i, h := range wantConflicts {
		if mc.Hashes[i] != h {
			t.Fatalf("conflict %d = %s, want %s (batch order)", i, mc.Hashes[i], h)
		}
	}
	if !strings.Contains(err.Error(), "3 cell(s)") || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("error text does not report the count: %v", err)
	}
	// First-accepted values all survived.
	for _, i := range []int{0, 2, 5} {
		kept, _, _ := st.Get(results[i].Key.Hash())
		if kept.Stats != results[i].Stats {
			t.Fatalf("conflict %d replaced the first-accepted value", i)
		}
	}
	// The capped rendering still carries every hash in the error value.
	long := &MergeConflictError{}
	for i := 0; i < mergeConflictShown+4; i++ {
		long.Hashes = append(long.Hashes, strings.Repeat("a", 64))
	}
	if !strings.Contains(long.Error(), "+4 more") {
		t.Fatalf("capped rendering missing overflow note: %v", long.Error())
	}
}

// TestStoreRejectsUnknownSchemaCells is the -diff regression: a store file
// whose header says the current schema but which contains a
// self-consistent cell keyed under another schema (doctored or produced by
// a broken writer) must fail to open with an error naming that schema —
// not load silently and surface later as a baffling cell mismatch in
// tlbsweep -diff or a cache miss in a sweep.
func TestStoreRejectsUnknownSchemaCells(t *testing.T) {
	dir := t.TempDir()
	results := wireTestResults(t)

	// Doctor a cell: re-key it under a future schema, with its hash
	// recomputed so it is self-consistent (the hash check alone cannot
	// catch it).
	doctored := results[0]
	doctored.Key.Schema = KeySchema + 1

	// Monolithic layout: the header says the current schema but one cell
	// inside is keyed under another.
	mono := storeFile{Schema: KeySchema, Results: map[string]Result{
		results[1].Key.Hash(): results[1],
		doctored.Key.Hash():   doctored,
	}}
	monoPath := filepath.Join(dir, "mono.json")
	raw, err := json.Marshal(mono)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(monoPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	wantMonolithicRejected(t, monoPath, KeySchema)

	// Sharded layout: the same doctored key smuggled into a saved index.
	shardPath := filepath.Join(dir, "shard.json")
	st, err := OpenStore(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Merge(results); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	var idx map[string]json.RawMessage
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	var keys map[string]Key
	if err := json.Unmarshal(idx["keys"], &keys); err != nil {
		t.Fatal(err)
	}
	keys[results[0].Key.Hash()] = doctored.Key
	rekeyed, err := json.Marshal(keys)
	if err != nil {
		t.Fatal(err)
	}
	idx["keys"] = rekeyed
	if raw, err = json.Marshal(idx); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStore(shardPath)
	if err == nil {
		t.Fatal("sharded store with an unknown-schema index key opened without error")
	}
	for _, want := range []string{"schema 4", "speaks 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the schemas (want %q)", err, want)
		}
	}
}
