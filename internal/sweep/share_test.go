package sweep

import (
	"math/rand/v2"
	"slices"
	"testing"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// workloadRefs returns the first n references of a registry workload.
func workloadRefs(t *testing.T, name string, n uint64) []trace.Ref {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	refs := make([]trace.Ref, 0, n)
	workload.Generate(w, n, func(pc, vaddr uint64) bool {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	return refs
}

// TestSharedMechanismMatchesPrivate checks the rule the runner's shards
// rely on: for every kind not flagged feedback, the members of a sim.Group
// built around one instance of the mechanism produce exactly the Stats and
// TimingStats of members that each hold their own. The members cross
// buffers {8, 16, 32} with three timing points and the functional model,
// timed first, so the member that asks the shared instance issues through
// the cycle model and the others issue the same prediction after it.
func TestSharedMechanismMatchesPrivate(t *testing.T) {
	for _, kind := range Kinds() {
		m := everyKindMechs[kind]
		if k, _ := m.lookup(); k.feedback {
			continue
		}
		for _, w := range []string{"mcf", "twolf"} {
			refs := workloadRefs(t, w, 100_000)
			run := func(build func() prefetch.Prefetcher) []sim.TimingStats {
				g := sim.NewGroup()
				var stats []func() sim.TimingStats
				for _, penalty := range []uint64{50, 100, 200, 0} {
					for _, buffer := range []int{8, 16, 32} {
						tc := sim.ScaledTiming(max(penalty, 1))
						tc.BufferEntries = buffer
						if penalty == 0 {
							s := sim.New(tc.Config, build())
							g.Add(s)
							stats = append(stats, func() sim.TimingStats { return sim.TimingStats{Stats: s.Stats()} })
							continue
						}
						s := sim.NewTiming(tc, build())
						g.Add(s.Simulator)
						stats = append(stats, s.Stats)
					}
				}
				for pos := 0; pos < len(refs); pos += 4096 {
					g.RefBatch(refs[pos:min(pos+4096, len(refs))])
				}
				out := make([]sim.TimingStats, len(stats))
				for i, st := range stats {
					out[i] = st()
				}
				return out
			}
			one := m.Build()
			shared := run(func() prefetch.Prefetcher { return one })
			private := run(m.Build)
			for i := range private {
				if shared[i] != private[i] {
					t.Errorf("%s on %s, member %d: shared instance %+v, private instances %+v", kind, w, i, shared[i], private[i])
				}
			}
		}
	}
}

// missLog is a Prefetcher that predicts nothing and keeps every miss event.
type missLog struct{ evs []prefetch.Event }

func (l *missLog) Name() string { return "log" }

func (l *missLog) OnMiss(ev prefetch.Event, _ []uint64) prefetch.Action {
	l.evs = append(l.evs, ev)
	return prefetch.Action{}
}

func (l *missLog) Reset() {}

// TestFeedbackFlagExact pins the registry's feedback column to what each
// kind's OnMiss does: fed mcf's miss stream once with Event.BufferHit all
// false and once with it random, a kind answers differently exactly when it
// is flagged. A kind that reads BufferHit without the flag would share one
// instance across a shard's members and predict with another member's
// buffer outcome.
func TestFeedbackFlagExact(t *testing.T) {
	log := &missLog{}
	sim.New(sim.Default(), log).RefBatch(workloadRefs(t, "mcf", 200_000))
	rng := rand.New(rand.NewPCG(1, 2))
	hits := make([]bool, len(log.evs))
	for i := range hits {
		hits[i] = rng.IntN(2) == 0
	}
	for _, kind := range Kinds() {
		m := everyKindMechs[kind]
		k, _ := m.lookup()
		quiet, noisy := m.Build(), m.Build()
		differ := false
		for i := 0; quiet != nil && i < len(log.evs) && !differ; i++ {
			ev := log.evs[i]
			a := quiet.OnMiss(ev, nil)
			ev.BufferHit = hits[i]
			b := noisy.OnMiss(ev, nil)
			differ = a.StateMemOps != b.StateMemOps || !slices.Equal(a.Prefetches, b.Prefetches)
		}
		if differ != k.feedback {
			t.Errorf("%s: answers differ with BufferHit = %v, but the registry's feedback flag is %v", kind, differ, k.feedback)
		}
	}
}
