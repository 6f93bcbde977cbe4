package sim

import (
	"testing"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

func batchTestStream(t *testing.T, wname string, n int) []trace.Ref {
	t.Helper()
	w, ok := workload.ByName(wname)
	if !ok {
		t.Fatalf("workload %s missing", wname)
	}
	refs := make([]trace.Ref, 0, n)
	workload.Generate(w, uint64(n), func(pc, vaddr uint64) bool {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	return refs
}

// refModel is the per-reference pipeline written out on its own (count,
// probe, fill, back half), sharing no code with frontend: the equivalence
// tests compare the production reference loop against it.
func refModel(s *Simulator, pc, vaddr uint64) {
	s.stat.Refs++
	vpn := vaddr >> s.cfg.PageShift
	if s.tlb.Access(vpn) {
		return
	}
	evicted, hasEvicted := s.tlb.Insert(vpn)
	readyAt, bufferHit := s.probe(vpn)
	act := s.pf.OnMiss(prefetch.Event{VPN: vpn, PC: pc, BufferHit: bufferHit, EvictedVPN: evicted, HasEvicted: hasEvicted}, nil)
	s.issue(s.tlb, act, readyAt, bufferHit)
}

// TestSimulatorBatchEquivalence is the differential contract of the batched
// entry points: RefBatch over any chunking of a stream must produce Stats
// byte-identical to the per-reference model, for every mechanism family.
func TestSimulatorBatchEquivalence(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	refs := batchTestStream(t, "mcf", 60_000)
	for i, pf := range equivMechs() {
		perRef := New(cfg, pf)
		for _, r := range refs {
			refModel(perRef, r.PC, r.VAddr)
		}
		batched := New(cfg, equivMechs()[i])
		// Deliberately ragged chunk sizes, including empty chunks.
		for pos, k := 0, 0; pos < len(refs); k++ {
			sz := []int{1, 0, 7, 4096, 333, 65_536}[k%6]
			if sz > len(refs)-pos {
				sz = len(refs) - pos
			}
			batched.RefBatch(refs[pos : pos+sz])
			pos += sz
		}
		got, want := batched.Stats(), perRef.Stats()
		if got != want {
			t.Errorf("mechanism %d (%s): batched %+v != per-ref %+v",
				i, perRef.Prefetcher().Name(), got, want)
		}
	}
}

// TestSimulatorRunUsesBatchPath pins that Run over a batch-capable reader
// equals the historical per-Read loop.
func TestSimulatorRunUsesBatchPath(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	refs := batchTestStream(t, "gzip", 50_000)
	for i, pf := range equivMechs() {
		viaRun := New(cfg, pf)
		if err := viaRun.RunBatch(trace.NewSliceReader(refs)); err != nil {
			t.Fatal(err)
		}
		perRef := New(cfg, equivMechs()[i])
		for _, r := range refs {
			refModel(perRef, r.PC, r.VAddr)
		}
		if got, want := viaRun.Stats(), perRef.Stats(); got != want {
			t.Errorf("mechanism %d: Run %+v != per-ref %+v", i, got, want)
		}
	}
}

// TestGroupBatchEquivalence extends the shared-frontend differential
// contract to RefBatch: a chunk-fed group must match independent
// simulators fed one reference at a time exactly.
func TestGroupBatchEquivalence(t *testing.T) {
	refs := batchTestStream(t, "swim", 60_000)
	cfg := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}

	var perRef []*Simulator
	for _, pf := range equivMechs() {
		s := New(cfg, pf)
		for _, r := range refs {
			refModel(s, r.PC, r.VAddr)
		}
		perRef = append(perRef, s)
	}
	batched := NewGroup()
	for _, pf := range equivMechs() {
		batched.Add(New(cfg, pf))
	}
	for pos := 0; pos < len(refs); pos += 4096 {
		batched.RefBatch(refs[pos:min(pos+4096, len(refs))])
	}
	for i := range perRef {
		got := batched.Members()[i].Stats()
		want := perRef[i].Stats()
		if got != want {
			t.Errorf("member %d: batched %+v != per-ref %+v", i, got, want)
		}
	}
}
