package multiprog

import (
	"testing"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/trace"
)

// cycle is an endless source replaying refs, so one interleaver can be
// drained pass after pass.
type cycle struct {
	refs []trace.Ref
	pos  int
}

func (c *cycle) ReadBatch(dst []trace.Ref) (int, error) {
	n := copy(dst, c.refs[c.pos:])
	c.pos = (c.pos + n) % len(c.refs)
	return n, nil
}

// TestMixShardZeroAlloc pins the claim that the mix path allocates nothing
// per reference: after a warm pass, a pass of NextRun + Group.RefBatch over
// a DP/RP/SBFP × every policy × ASID pair shard must not allocate.
func TestMixShardZeroAlloc(t *testing.T) {
	streams := mixStreams(t, []uint64{6000, 5000})
	srcs := make([]trace.BatchReader, len(streams))
	total := 0
	for i, s := range streams {
		srcs[i] = &cycle{refs: s}
		total += len(s)
	}
	var execs []*Exec
	for _, mk := range []func() prefetch.Prefetcher{
		mkDP,
		func() prefetch.Prefetcher { return prefetch.NewRecency() },
		func() prefetch.Prefetcher { return prefetch.NewSBFP() },
	} {
		for _, pol := range []Policy{Retain, Flush, PerProcess} {
			for _, asid := range []ASIDMode{ASIDFlush, ASIDTagged} {
				execs = append(execs, NewExec(simCfg(), pol, asid, len(srcs), mk))
			}
		}
	}
	g := NewGroup(execs...)
	it := NewStreamInterleaver(srcs, 1000)
	pass := func() {
		for n := 0; n < total; {
			proc, run, ok := it.NextRun()
			if !ok {
				t.Fatal("endless sources ran dry")
			}
			g.RefBatch(proc, run)
			n += len(run)
		}
	}
	// Warm up. The schedule drifts against the cycling sources, so the
	// TLB and table states never repeat exactly; a row's first use in a
	// pass may still be the first use of its table slot, which allocates
	// the slot's storage once (later resets and evictions recycle it).
	// Ten passes claim every slot this stream reaches (four suffice).
	for i := 0; i < 10; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Fatalf("mix shard pass allocated %.1f times after warm-up; the mix path must be allocation-free", allocs)
	}
}
