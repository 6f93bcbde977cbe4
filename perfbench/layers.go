package main

import (
	"io"
	"runtime"

	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
)

// replayChunk mirrors the sweep runner's streaming chunk.
const replayChunk = 4096

// anomalyRefs is the mcf stream length of the two single-simulator rows the
// ROADMAP flags (simulator/none drifting across the BENCH files, SBFP at
// 3-4x the other mechanisms), long enough to time like the BENCH rows did.
const anomalyRefs = 1_000_000

// replayCounts are the counters the replay collects beside its spans.
type replayCounts struct {
	groups, sharedGroups int    // functional shards replayed, and how many ran one shared frontend
	timingMallocs        uint64 // heap allocations during the timing replays
	timingMisses         uint64 // TLB misses those replays simulated
	switches             uint64 // process switches in the interleaved mix streams
	interleaved          uint64 // references those streams delivered
}

// replay drives the layers Runner.Run hides, one shard at a time over the
// same streams the sweep consumed, each under its own span below a
// "replay" root: workload generation, the shared TLB frontend alone
// (nil-mechanism members), the full sim.Group, every mechanism's OnMiss
// over miss events recorded outside the timed spans, the cycle model, the
// mix interleaver and the mix executor, then the mcf anomaly rows. A warm
// plan computes nothing, so it replays nothing.
func (p *plan) replay(tr *tracer) (replayCounts, error) {
	var c replayCounts
	if p.warm {
		return c, nil
	}
	root := tr.begin("replay", -1)
	defer func() { tr.end(root, 0) }()
	for _, sh := range shards(p.jobs) {
		var err error
		switch {
		case sh[0].Mix != nil:
			err = replayMix(tr, root, sh, &c)
		case sh[0].Timing != nil:
			replayTiming(tr, root, sh, &c)
		default:
			replayFunctional(tr, root, sh, &c)
		}
		if err != nil {
			return c, err
		}
	}
	replayAnomalies(tr, root, p.jobs)
	return c, nil
}

// shards groups jobs the way the runner coalesces them, in first-appearance
// order.
func shards(jobs []sweep.Job) [][]sweep.Job {
	idx := make(map[string]int)
	var out [][]sweep.Job
	for _, j := range jobs {
		k := shardOf(j.Key())
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], j)
	}
	return out
}

// materialize generates a synthetic source's stream under a
// workload.generate span.
func materialize(tr *tracer, parent int, name string, seed, n uint64) []trace.Ref {
	refs := make([]trace.Ref, 0, n)
	sp := tr.begin("workload.generate", parent)
	generate(name, seed, n, func(pc, vaddr uint64) {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
	})
	tr.end(sp, int64(len(refs)))
	return refs
}

// feedGroup streams refs through a group in runner-sized chunks, resetting
// the members' statistics after warmup references.
func feedGroup(g *sim.Group, refs []trace.Ref, warmup uint64) {
	for i := 0; i < len(refs); i += replayChunk {
		chunk := refs[i:min(i+replayChunk, len(refs))]
		if w := int(warmup); w > i && w < i+len(chunk) {
			g.RefBatch(chunk[:w-i])
			for _, m := range g.Members() {
				m.ResetStats()
			}
			chunk = chunk[w-i:]
		}
		g.RefBatch(chunk)
	}
}

func replayFunctional(tr *tracer, root int, sh []sweep.Job, c *replayCounts) {
	j0 := sh[0]
	refs := materialize(tr, root, j0.Source.Workload, j0.Seed, j0.Warmup+j0.Refs)

	front := sim.NewGroup()
	for _, j := range sh {
		front.Add(sim.New(j.Config, nil))
	}
	sp := tr.begin("sim.frontend", root)
	feedGroup(front, refs, j0.Warmup)
	tr.end(sp, int64(len(refs)))

	g := sim.NewGroup()
	for _, j := range sh {
		g.Add(sim.New(j.Config, j.Mech.Build()))
	}
	c.groups++
	if g.SharedFrontend() {
		c.sharedGroups++
	}
	sp = tr.begin("sim.group", root)
	feedGroup(g, refs, j0.Warmup)
	tr.end(sp, int64(len(refs)))

	replayMechanisms(tr, root, sh, func(j sweep.Job, rec *recorder) {
		s := sim.New(j.Config, rec)
		for i := 0; i < len(refs); i += replayChunk {
			s.RefBatch(refs[i:min(i+replayChunk, len(refs))])
		}
	})
}

func replayTiming(tr *tracer, root int, sh []sweep.Job, c *replayCounts) {
	j0 := sh[0]
	refs := materialize(tr, root, j0.Source.Workload, j0.Seed, j0.Refs)
	sims := make([]*sim.TimingSimulator, len(sh))
	for i, j := range sh {
		sims[i] = sim.NewTiming(j.Timing.Config(j.Config), j.Mech.Build())
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.begin("timing.ref", root)
	for _, s := range sims {
		for i := range refs {
			s.Ref(refs[i].PC, refs[i].VAddr)
		}
	}
	tr.end(sp, int64(len(refs)*len(sims)))
	runtime.ReadMemStats(&ms1)
	c.timingMallocs += ms1.Mallocs - ms0.Mallocs
	for _, s := range sims {
		c.timingMisses += s.Stats().Misses
	}
	replayMechanisms(tr, root, sh, func(j sweep.Job, rec *recorder) {
		s := sim.New(j.Config, rec)
		s.RefBatch(refs)
	})
}

// tagged is one reference of an interleaved mix stream.
type tagged struct {
	proc      int
	pc, vaddr uint64
}

func replayMix(tr *tracer, root int, sh []sweep.Job, c *replayCounts) error {
	j0 := sh[0]
	m := j0.Mix.Canonical()
	// Decode the member recordings up front so the interleaver span times
	// the scheduler alone.
	members := make([][]trace.Ref, len(j0.Mix.Sources))
	streams, closers, err := openMembers(*j0.Mix, j0.Refs)
	defer closeAll(closers)
	if err != nil {
		return err
	}
	for i, s := range streams {
		var buf [replayChunk]trace.Ref
		for {
			n, err := s.ReadBatch(buf[:])
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			members[i] = append(members[i], buf[:n]...)
		}
	}
	interleaver := func() *multiprog.StreamInterleaver {
		srcs := make([]trace.BatchReader, len(members))
		for i, refs := range members {
			srcs[i] = trace.NewSliceReader(refs)
		}
		return multiprog.NewStreamInterleaver(srcs, m.Quantum)
	}

	it := interleaver()
	var n, switches uint64
	last := -1
	sp := tr.begin("multiprog.interleave", root)
	for {
		proc, _, _, ok := it.Next()
		if !ok {
			break
		}
		n++
		if proc != last {
			if last >= 0 {
				switches++
			}
			last = proc
		}
	}
	tr.end(sp, int64(n))
	c.switches += switches
	c.interleaved += n

	stream := make([]tagged, 0, n)
	it = interleaver()
	for {
		proc, pc, vaddr, ok := it.Next()
		if !ok {
			break
		}
		stream = append(stream, tagged{proc, pc, vaddr})
	}

	execs := make([]*multiprog.Exec, len(sh))
	for i, j := range sh {
		execs[i] = newExec(j, len(members), nil)
	}
	sp = tr.begin("multiprog.exec", root)
	for _, e := range execs {
		for _, r := range stream {
			e.Ref(r.proc, r.pc, r.vaddr)
		}
	}
	tr.end(sp, int64(len(stream)*len(execs)))

	replayMechanisms(tr, root, sh, func(j sweep.Job, rec *recorder) {
		e := newExec(j, len(members), rec)
		for _, r := range stream {
			e.Ref(r.proc, r.pc, r.vaddr)
		}
	})
	return nil
}

// newExec builds a mix cell's executor; a non-nil recorder replaces the
// cell's mechanism (for the retain policy, which builds exactly one).
func newExec(j sweep.Job, nprocs int, rec *recorder) *multiprog.Exec {
	m := j.Mix.Canonical()
	pol, _ := multiprog.ParsePolicy(m.Policy) // validated when the grid was declared
	asid, _ := multiprog.ParseASID(m.ASID)
	if rec != nil {
		pol = multiprog.Retain
	}
	mech := j.Mech
	return multiprog.NewExec(j.Config, pol, asid, nprocs, func() prefetch.Prefetcher {
		if rec != nil {
			return rec
		}
		return mech.Build()
	})
}

// recorder wraps a mechanism and records every miss event it sees.
type recorder struct {
	prefetch.Prefetcher
	events []prefetch.Event
}

// OnMiss implements prefetch.Prefetcher.
func (r *recorder) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	r.events = append(r.events, ev)
	return r.Prefetcher.OnMiss(ev, dst)
}

// replayMechanisms records, outside any timed span, the miss events the
// first cell of each mechanism kind in the shard delivers to its mechanism
// (drive runs that cell's stream through rec), then times a fresh instance
// of the mechanism's OnMiss over exactly those events.
func replayMechanisms(tr *tracer, root int, sh []sweep.Job, drive func(sweep.Job, *recorder)) {
	seen := make(map[string]bool)
	for _, j := range sh {
		if j.Mech.Kind == "none" || seen[j.Mech.Kind] {
			continue
		}
		seen[j.Mech.Kind] = true
		rec := &recorder{Prefetcher: j.Mech.Build()}
		drive(j, rec)
		timeOnMiss(tr, root, "prefetch."+j.Mech.Kind+".on_miss", j.Mech.Build(), rec.events)
	}
}

// timeOnMiss replays miss events through a mechanism under one span.
func timeOnMiss(tr *tracer, parent int, name string, pf prefetch.Prefetcher, events []prefetch.Event) {
	scratch := make([]uint64, 0, 64)
	sp := tr.begin(name, parent)
	for _, ev := range events {
		act := pf.OnMiss(ev, scratch[:0])
		if cap(act.Prefetches) > cap(scratch) {
			scratch = act.Prefetches
		}
	}
	tr.end(sp, int64(len(events)))
}

// replayAnomalies times the two single-simulator rows the ROADMAP flags on
// mcf at the default geometry: the frontend alone (one nil-mechanism member
// through Group.RefBatch), the per-reference simulator/none and
// simulator/SBFP rows of the BENCH files, and SBFP's OnMiss over mcf's miss
// events. It runs only when the plan holds mcf functional cells.
func replayAnomalies(tr *tracer, root int, jobs []sweep.Job) {
	var seed uint64
	found := false
	for _, j := range jobs {
		if j.Mix == nil && j.Timing == nil && j.Source.Workload == "mcf" {
			seed, found = j.Seed, true
			break
		}
	}
	if !found {
		return
	}
	refs := make([]trace.Ref, 0, anomalyRefs)
	generate("mcf", seed, anomalyRefs, func(pc, vaddr uint64) {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
	})
	cfg := sim.Default()

	g := sim.NewGroup(sim.New(cfg, nil))
	sp := tr.begin("sim.frontend.mcf", root)
	feedGroup(g, refs, 0)
	tr.end(sp, int64(len(refs)))

	for _, kind := range []string{"none", "SBFP"} {
		s := sim.New(cfg, sweep.Mech{Kind: kind}.Build())
		sp := tr.begin("sim.simulator."+kind+".mcf", root)
		for i := range refs {
			s.Ref(refs[i].PC, refs[i].VAddr)
		}
		tr.end(sp, int64(len(refs)))
	}

	rec := &recorder{Prefetcher: prefetch.NewSBFP()}
	sim.New(cfg, rec).RefBatch(refs)
	timeOnMiss(tr, root, "prefetch.SBFP.on_miss.mcf", prefetch.NewSBFP(), rec.events)
}
