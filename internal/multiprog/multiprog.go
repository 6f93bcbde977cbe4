// Package multiprog implements the multiprogramming study the paper names
// as ongoing work in §4: "We are also investigating prefetching issues in a
// multiprogrammed environment (flushing/switching the prefetch tables)".
//
// Two or more reference streams share one CPU round-robin with a
// context-switch quantum. The TLB, prefetch buffer and prefetcher are one
// shared hardware pipeline; what differs per cell is the scheduler's
// treatment of that state at a switch:
//
//   - Policy picks what happens to the *prediction tables*: keep one shared
//     table (Retain), reset it every switch (Flush), or save/restore a
//     private table per process (PerProcess — the idealized tagged
//     hardware). DP's distance table is the interesting case: distances are
//     process-relative, so a shared table suffers cross-process aliasing,
//     while flushing discards warm state every quantum.
//   - ASIDMode picks what happens to the *translations*: flush TLB and
//     prefetch buffer at every switch (ASIDFlush, the conservative 2002-era
//     assumption of no address-space identifiers), or keep them resident
//     under ASID-tagged entries (ASIDTagged; the interleaver's per-process
//     address tagging stands in for the tag match).
//
// The package splits the mechanics in two so the sweep runner can share
// work: a StreamInterleaver deterministically round-robins per-process
// reference sources and hands the schedule out in runs (allocation-free,
// so one interleaving pass can feed many cells), and an Exec drives one
// simulator under one (Policy, ASIDMode) pair, attributing counters to the
// process that was running. A Group feeds each run to many Execs at once,
// with the Execs of one ASID mode sharing one TLB frontend.
package multiprog

import (
	"fmt"

	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/trace"
)

// Policy selects the prediction-table treatment at a context switch.
type Policy int

const (
	// Retain keeps one shared prediction table across switches.
	Retain Policy = iota
	// Flush resets the prediction table at every switch.
	Flush
	// PerProcess gives each process its own table, swapped in with the
	// process — the idealized hardware (tagged or saved/restored tables).
	PerProcess
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Retain:
		return "retain"
	case Flush:
		return "flush"
	case PerProcess:
		return "per-process"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the string spellings ("retain", "flush", "per-process")
// back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "retain":
		return Retain, nil
	case "flush":
		return Flush, nil
	case "per-process":
		return PerProcess, nil
	}
	return 0, fmt.Errorf("multiprog: unknown policy %q (retain, flush, per-process)", s)
}

// ASIDMode selects the translation treatment at a context switch.
type ASIDMode int

const (
	// ASIDFlush flushes the TLB and prefetch buffer at every real switch:
	// no address-space identifiers, the conservative 2002 assumption.
	ASIDFlush ASIDMode = iota
	// ASIDTagged keeps translations resident across switches under
	// ASID-tagged entries; processes contend for capacity instead.
	ASIDTagged
)

// String implements fmt.Stringer.
func (m ASIDMode) String() string {
	switch m {
	case ASIDFlush:
		return "flush"
	case ASIDTagged:
		return "tagged"
	}
	return fmt.Sprintf("ASIDMode(%d)", int(m))
}

// ParseASID maps the string spellings ("flush", "tagged") back to an
// ASIDMode.
func ParseASID(s string) (ASIDMode, error) {
	switch s {
	case "flush":
		return ASIDFlush, nil
	case "tagged":
		return ASIDTagged, nil
	}
	return 0, fmt.Errorf("multiprog: unknown asid mode %q (flush, tagged)", s)
}

// ASIDShift is the bit position of the interleaver's per-process address
// tag: process i's references carry (i+1)<<ASIDShift, disambiguating
// address spaces the way an OS (or an ASID tag match) would. Tagging is
// unconditional — under ASIDFlush the TLB is emptied at every switch, so
// the tags are inert there — which keeps the interleaved stream identical
// across every policy and ASID mode sharing one interleaving pass.
const ASIDShift = 44

// Split divides a total reference budget across n processes: total/n each,
// with the remainder spread over the earliest processes, so the shares sum
// to exactly total.
func Split(total uint64, n int) []uint64 {
	if n <= 0 {
		panic("multiprog: need a positive process count")
	}
	per, rem := total/uint64(n), total%uint64(n)
	out := make([]uint64, n)
	for i := range out {
		out[i] = per
		if uint64(i) < rem {
			out[i]++
		}
	}
	return out
}

// Exec drives one shared simulator pipeline under one (Policy, ASIDMode)
// pair, fed by an interleaved stream. It detects context switches from the
// process ids the StreamInterleaver reports — only a *real* process change
// triggers switch actions, so a lone remaining process runs undisturbed —
// and attributes the counters accrued between switches to the process that
// was running.
type Exec struct {
	sim    *sim.Simulator
	policy Policy
	asid   ASIDMode
	tables []prefetch.Prefetcher // per-process tables (PerProcess only)
	cur    int                   // running process (-1 before first dispatch)
	prev   sim.Stats             // counter snapshot at the last boundary
	apps   []sim.Stats
}

// NewExec builds an executor for nprocs processes. mk builds one
// prediction-table instance; it is invoked once for Retain/Flush and once
// per process for PerProcess (nil results mean no prefetching).
func NewExec(cfg sim.Config, policy Policy, asid ASIDMode, nprocs int, mk func() prefetch.Prefetcher) *Exec {
	if nprocs <= 0 {
		panic("multiprog: need a positive process count")
	}
	e := &Exec{
		policy: policy,
		asid:   asid,
		cur:    -1,
		apps:   make([]sim.Stats, nprocs),
	}
	if policy == PerProcess {
		e.tables = make([]prefetch.Prefetcher, nprocs)
		for i := range e.tables {
			e.tables[i] = mk()
		}
		e.sim = sim.New(cfg, e.tables[0])
	} else {
		e.sim = sim.New(cfg, mk())
	}
	return e
}

// Ref feeds one scheduled reference (as produced by StreamInterleaver.Next)
// into the pipeline, performing switch actions when the process changed.
// It is the per-reference path; Group drives the same switch actions over
// whole runs on a shared TLB. An Exec is fed by one of them, never both.
func (e *Exec) Ref(proc int, pc, vaddr uint64) {
	if proc != e.cur {
		if e.cur >= 0 && e.asid == ASIDFlush {
			e.sim.TLB().Reset()
		}
		e.switchTo(proc)
	}
	e.sim.Ref(pc, vaddr)
}

// switchTo attributes the outgoing process's counters and applies the
// switch actions of the pipeline's back half: buffer flush (ASIDFlush) and
// prefetcher reset or swap. The TLB is the caller's to flush, because a
// Group shares it between Execs. The first dispatch installs the process
// without any flushing — nothing ran yet, there is nothing to invalidate.
func (e *Exec) switchTo(next int) {
	e.attribute()
	if e.cur >= 0 {
		if e.asid == ASIDFlush {
			e.sim.Buffer().Flush()
		}
		if e.policy == Flush {
			e.sim.Prefetcher().Reset()
		}
	}
	if e.policy == PerProcess {
		e.sim.SwapPrefetcher(e.tables[next])
	}
	e.cur = next
}

// attribute charges the counters accrued since the last boundary to the
// process that was running. Only the monotonic counters are attributed:
// PrefetchesUnused counts buffer-resident entries (which later use can
// shrink), so it is meaningful for the aggregate snapshot only and stays 0
// in per-process stats.
func (e *Exec) attribute() {
	if e.cur < 0 {
		return
	}
	now := e.sim.Stats()
	now.PrefetchesUnused = 0
	a := &e.apps[e.cur]
	a.Refs += now.Refs - e.prev.Refs
	a.Misses += now.Misses - e.prev.Misses
	a.BufferHits += now.BufferHits - e.prev.BufferHits
	a.DemandFetches += now.DemandFetches - e.prev.DemandFetches
	a.PrefetchesRequested += now.PrefetchesRequested - e.prev.PrefetchesRequested
	a.PrefetchesIssued += now.PrefetchesIssued - e.prev.PrefetchesIssued
	a.PrefetchDuplicates += now.PrefetchDuplicates - e.prev.PrefetchDuplicates
	a.StateMemOps += now.StateMemOps - e.prev.StateMemOps
	e.prev = now
}

// ExecResult is an Exec's outcome: the shared pipeline's aggregate counters
// plus the per-process attribution.
type ExecResult struct {
	// Aggregate is the shared pipeline's counters over the whole run,
	// including the finalized unused-prefetch count.
	Aggregate sim.Stats
	// Apps holds one entry per process: the counters accrued while that
	// process was running. PrefetchesUnused is always 0 here (see
	// Exec.attribute).
	Apps []sim.Stats
}

// Results attributes the final segment and returns the run's counters. The
// Exec can continue to be fed afterwards; Results may be called again.
func (e *Exec) Results() ExecResult {
	e.attribute()
	return ExecResult{
		Aggregate: e.sim.Stats(),
		Apps:      append([]sim.Stats(nil), e.apps...),
	}
}

// Group drives many Execs over one interleaved stream, a run at a time.
// A TLB's contents depend only on its geometry and on the ASID mode —
// fills happen at miss time, so neither the mechanism, the table policy
// nor the buffer size changes them — and every Exec sees its switches at
// the same references. So the Execs of one ASID mode share one sim.Group:
// one TLB probe per reference, with only the misses fanning out to the
// members' buffers and mechanisms. At a real process change the Group
// empties each ASIDFlush frontend's TLB once and applies every Exec's
// back-half switch actions. sim.Group settles its members' counters at
// the end of every batch and a switch always falls between batches, so
// the per-process attribution is exact (pinned against per-reference
// Exec.Ref by TestGroupMatchesPerRefExec).
type Group struct {
	execs  []*Exec
	fronts []*sim.Group
	flush  []bool // fronts[i] empties its TLB at a switch (ASIDFlush)
	cur    int    // running process (-1 before the first run)
}

// NewGroup builds a Group over fresh Execs, which it then owns: they must
// not be fed through Exec.Ref. Execs of one ASID mode share one frontend,
// so they must agree on TLB geometry and page shift (a mix shard's key
// guarantees it); sim.Group panics on a member that does not.
func NewGroup(execs ...*Exec) *Group {
	g := &Group{execs: execs, cur: -1}
	byMode := map[ASIDMode]*sim.Group{}
	for _, e := range execs {
		f, ok := byMode[e.asid]
		if !ok {
			f = sim.NewGroup()
			byMode[e.asid] = f
			g.fronts = append(g.fronts, f)
			g.flush = append(g.flush, e.asid == ASIDFlush)
		}
		f.Add(e.sim)
	}
	return g
}

// RefBatch feeds one run of process proc (as produced by
// StreamInterleaver.NextRun) to every Exec, performing the switch actions
// first when the process changed.
func (g *Group) RefBatch(proc int, run []trace.Ref) {
	if proc != g.cur {
		if g.cur >= 0 {
			for i, f := range g.fronts {
				if g.flush[i] {
					f.ResetTLB()
				}
			}
		}
		for _, e := range g.execs {
			e.switchTo(proc)
		}
		g.cur = proc
	}
	for _, f := range g.fronts {
		f.RefBatch(run)
	}
}
