// Package sweep is the parameter-grid sweep engine behind the experiment
// harness and cmd/tlbsweep. The paper's whole evaluation is one big
// cross-product — sources (synthetic workloads and recorded traces) ×
// mechanisms × TLB geometries × buffer sizes × table shapes × cycle-model
// timing points — and sweep makes that cross-product a first-class object:
//
//   - A Grid declares axes and enumerates Jobs (one simulation cell each).
//   - Every Job is content-addressed: a canonical Key (schema-versioned,
//     fully resolved configuration) hashes to a stable identity, so the
//     same cell always lands in the same place no matter which sweep asked
//     for it.
//   - A Runner shards jobs across a worker pool, coalescing cells that
//     share a reference stream (workload or trace) and TLB geometry onto
//     one sim.Group shared frontend (the 21-way fan-out win of the figure
//     harness, applied automatically), and skips cells already present in
//     a Store. Work arrives either as a fixed slice (Run) or through the
//     JobSource seam (RunSource), which the distributed backend in
//     internal/sweepd implements as a remote lease feed.
//   - A Store maps key hashes to results and persists as deterministic
//     JSON: re-running a sweep after editing one mechanism recomputes only
//     the dirty cells, and two runs of the same grid produce byte-identical
//     files regardless of worker count.
//
// Rendering lives next door: Filter selects store subsets for the flat
// emitters in this package (Table, CSV, JSON), and internal/report turns
// the same subsets into paper-style grouped-bar figures.
package sweep

import (
	"fmt"
	"strings"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/stats"
	"tlbprefetch/internal/tlb"
)

// KeySchema versions the content-addressing layout. Bump it whenever the
// meaning of a Key field (or of the simulation it names) changes, so stale
// stores miss cleanly instead of serving wrong numbers.
//
// Schema history:
//
//	v1: workloads addressed by registry name only; timing cells a bare
//	    bool pinning sim.DefaultTiming's constants.
//	v2: sources are first-class (synthetic name or trace-file SHA-256)
//	    and the cycle model's constants are key axes (see Timing).
//	v3: multiprogrammed mixes are first-class sources (see Mix): a Key
//	    carries either a single Source or a Mix (member sources +
//	    context-switch quantum + table policy + ASID mode).
//
// A store written under an older schema is rejected on open, not migrated
// (see OpenStore): the store is a cache, so deleting it costs a re-run.
const KeySchema = 3

// Mech names one prefetching-mechanism configuration, fully resolved (no
// harness-level defaulting left). The parameters a kind ignores are
// canonicalized away by Normalize so that, e.g., a table-less kind at r=256
// and at r=1024 content-address to the same cell.
type Mech struct {
	// Kind is a registry name (see Kinds): one of the paper's mechanisms,
	// a variant of one, a modern successor, or the no-prefetching
	// baseline.
	Kind string `json:"kind"`
	// Rows (r) and Ways apply to the table-based kinds. Ways 0 is
	// canonicalized to 1 (direct-mapped); Ways == Rows is fully
	// associative.
	Rows int `json:"rows,omitempty"`
	Ways int `json:"ways,omitempty"`
	// Slots is s, the predictions per row, for the kinds with per-row
	// slots (see the registry for what each kind makes of it).
	Slots int `json:"slots,omitempty"`
}

// kindRow is one row of the mechanism registry: everything the sweep
// engine knows about a mechanism kind.
type kindRow struct {
	name string
	// table reports whether the kind has a prediction table (and
	// therefore meaningful Rows/Ways).
	table bool
	// slots reports whether the kind has per-row prediction slots: the
	// predictions per row for the Markov and distance families, the GHB
	// walk degree for temporal streaming, the strides tracked per PC for
	// multi-stride ASP.
	slots bool
	// build instantiates the kind from a normalized, validated Mech.
	build func(m Mech) prefetch.Prefetcher
}

// registry is every mechanism kind, in the order Kinds reports them.
// Adding a kind takes one row here (plus the differential test and
// benchmark row that TestRegistryCoverage requires).
var registry = []kindRow{
	{"none", false, false, func(Mech) prefetch.Prefetcher { return nil }},
	{"SP", false, false, func(Mech) prefetch.Prefetcher { return prefetch.NewSequential(true) }},
	{"SP-A", false, false, func(Mech) prefetch.Prefetcher { return prefetch.NewAdaptiveSequential() }},
	{"ASP", true, false, func(m Mech) prefetch.Prefetcher { return prefetch.NewASP(m.Rows, m.Ways) }},
	{"MP", true, true, func(m Mech) prefetch.Prefetcher { return prefetch.NewMarkov(m.Rows, m.Ways, m.Slots) }},
	{"RP", false, false, func(Mech) prefetch.Prefetcher { return prefetch.NewRecency() }},
	{"RP3", false, false, func(Mech) prefetch.Prefetcher { return prefetch.NewRecencyDegree(3) }},
	{"DP", true, true, func(m Mech) prefetch.Prefetcher { return core.NewDistance(m.Rows, m.Ways, m.Slots) }},
	{"DP-PC", true, true, func(m Mech) prefetch.Prefetcher { return core.NewDistancePC(m.Rows, m.Ways, m.Slots) }},
	{"DP2", true, true, func(m Mech) prefetch.Prefetcher { return core.NewDistance2(m.Rows, m.Ways, m.Slots) }},
	{"STMS", true, true, func(m Mech) prefetch.Prefetcher { return prefetch.NewSTMS(m.Rows, m.Ways, m.Slots) }},
	{"MASP", true, true, func(m Mech) prefetch.Prefetcher { return prefetch.NewMASP(m.Rows, m.Ways, m.Slots) }},
	{"SBFP", false, false, func(Mech) prefetch.Prefetcher { return prefetch.NewSBFP() }},
}

// lookup returns the registry row of the mechanism's kind (the zero row,
// which uses no parameters, for an unknown kind).
func (m Mech) lookup() (kindRow, bool) {
	for _, k := range registry {
		if k.name == m.Kind {
			return k, true
		}
	}
	return kindRow{}, false
}

// Kinds returns every registered mechanism kind in registry order. Tests
// iterate this to assert each kind validates, builds, and carries its
// differential-test and benchmark coverage.
func Kinds() []string {
	out := make([]string, len(registry))
	for i, k := range registry {
		out[i] = k.name
	}
	return out
}

// ParseKind maps case-insensitive user input ("dp-pc", "NONE") onto the
// registry spelling of a kind. Input that names no kind comes back
// unchanged, for Validate to reject.
func ParseKind(s string) string {
	for _, k := range registry {
		if strings.EqualFold(s, k.name) {
			return k.name
		}
	}
	return s
}

// Normalize canonicalizes the parameters the kind actually uses and zeroes
// the rest, so equivalent configurations hash identically.
func (m Mech) Normalize() Mech {
	k, _ := m.lookup()
	if !k.table {
		m.Rows, m.Ways = 0, 0
	} else if m.Ways == 0 {
		m.Ways = 1
	}
	if !k.slots {
		m.Slots = 0
	}
	return m
}

// Validate reports whether the configuration can be built.
func (m Mech) Validate() error {
	k, ok := m.lookup()
	if !ok {
		return fmt.Errorf("sweep: unknown mechanism kind %q", m.Kind)
	}
	if !k.table {
		return nil
	}
	n := m.Normalize()
	if n.Rows <= 0 {
		return fmt.Errorf("sweep: %s needs a positive table row count, got %d", m.Kind, m.Rows)
	}
	if n.Ways < 0 {
		return fmt.Errorf("sweep: %s table associativity must not be negative, got %d", m.Kind, n.Ways)
	}
	if n.Rows%n.Ways != 0 {
		return fmt.Errorf("sweep: %s table rows %d not divisible by ways %d", m.Kind, n.Rows, n.Ways)
	}
	if k.slots && n.Slots <= 0 {
		return fmt.Errorf("sweep: %s needs positive prediction slots, got %d", m.Kind, m.Slots)
	}
	return nil
}

// Label renders the paper's figure-legend naming: the kind, then for a
// table-based kind its rows and associativity (D direct-mapped, F fully
// associative, else the way count), e.g. "DP,256,D".
func (m Mech) Label() string {
	if k, _ := m.lookup(); !k.table {
		return m.Kind
	}
	assoc := "D"
	switch {
	case m.Ways == m.Rows:
		assoc = "F"
	case m.Ways > 1:
		assoc = fmt.Sprintf("%d", m.Ways)
	}
	return fmt.Sprintf("%s,%d,%s", m.Kind, m.Rows, assoc)
}

// Build instantiates the mechanism (the no-prefetching baseline builds
// nil). It panics on an unknown kind; call Validate first
// when the kind comes from user input.
func (m Mech) Build() prefetch.Prefetcher {
	m = m.Normalize()
	k, ok := m.lookup()
	if !ok {
		panic(fmt.Sprintf("sweep: unknown mechanism kind %q", m.Kind))
	}
	return k.build(m)
}

// Job is one cell of a sweep: one reference stream through one simulator
// configuration with one mechanism.
type Job struct {
	// Source is the reference stream: a synthetic workload (resolved via
	// workload.ByName unless the Runner is given a custom resolver) or a
	// recorded trace file. Exactly one of Source and Mix is set.
	Source Source
	// Mix, when non-nil, makes the cell multiprogrammed: the mix's member
	// sources are interleaved round-robin under its scheduler parameters
	// and Source stays zero. Mix cells run the functional simulator and
	// carry no Warmup, Seed or Timing.
	Mix *Mix
	// Mech is the prefetching mechanism (fully resolved; see Mech).
	Mech Mech
	// Config is the simulator configuration (TLB geometry, buffer size,
	// page size).
	Config sim.Config
	// Refs is the number of references measured; Warmup references are
	// simulated before the statistics counters reset (the paper's
	// fast-forward). Warmup must be 0 for timing jobs.
	Refs   uint64
	Warmup uint64
	// Seed, when nonzero, replaces the workload model's own stream seed,
	// giving the cell an independent, reproducible stream (see DeriveSeed).
	// 0 keeps the model's paper-calibrated stream. Trace sources are a
	// fixed recording and must keep Seed 0.
	Seed uint64
	// Timing, when non-nil, switches the cell to the cycle-accounting
	// simulator with these constants (the paper's Table 3 uses
	// DefaultTiming). Nil runs the functional simulator.
	Timing *Timing
}

// Key is the canonical, schema-versioned identity of a Job used for
// content addressing. It flattens the job so that the hash depends on
// every simulation-relevant parameter and nothing else: trace sources
// contribute their digest (not their local path), and timing cells
// contribute the full constant set of their cycle model.
type Key struct {
	Schema int    `json:"schema"`
	Source Source `json:"source"`
	// Mix is set for multiprogrammed cells (canonical form) and absent
	// otherwise, so a single-source key's canonical JSON carries no mix
	// field at all.
	Mix        *Mix    `json:"mix,omitempty"`
	Mech       Mech    `json:"mech"`
	TLBEntries int     `json:"tlb_entries"`
	TLBWays    int     `json:"tlb_ways"`
	Buffer     int     `json:"buffer"`
	PageShift  uint    `json:"page_shift"`
	Refs       uint64  `json:"refs"`
	Warmup     uint64  `json:"warmup,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Timing     *Timing `json:"timing,omitempty"`
}

// canonicalTLBWays canonicalizes the two spellings of a fully associative
// TLB (Ways == 0 and Ways == Entries, which tlb.Config treats identically)
// to 0, so the identical configuration always content-addresses to the
// same cell.
func canonicalTLBWays(c tlb.Config) int {
	if c.Ways == c.Entries {
		return 0
	}
	return c.Ways
}

// Key returns the job's canonical identity (with the source, mechanism,
// TLB geometry and timing axis normalized; the Timing copy never aliases
// the job's).
func (j Job) Key() Key {
	k := Key{
		Schema:     KeySchema,
		Source:     j.Source.Canonical(),
		Mech:       j.Mech.Normalize(),
		TLBEntries: j.Config.TLB.Entries,
		TLBWays:    canonicalTLBWays(j.Config.TLB),
		Buffer:     j.Config.BufferEntries,
		PageShift:  j.Config.PageShift,
		Refs:       j.Refs,
		Warmup:     j.Warmup,
		Seed:       j.Seed,
	}
	if j.Mix != nil {
		m := j.Mix.Canonical()
		k.Mix = &m
	}
	if j.Timing != nil {
		t := j.Timing.Normalize()
		k.Timing = &t
	}
	return k
}

// SourceLabel renders the cell's stream for tables, progress lines and
// figure groups: the mix label ("galgel+gcc") for multiprogrammed cells,
// the source label otherwise.
func (k Key) SourceLabel() string {
	if k.Mix != nil {
		return k.Mix.Label()
	}
	return k.Source.Label()
}

// Hash returns the key's content address: the hex SHA-256 of its canonical
// JSON encoding.
func (k Key) Hash() string {
	h, err := stats.Fingerprint(k)
	if err != nil {
		panic(err) // Key contains only marshalable fields
	}
	return h
}

// Validate reports whether the job can run.
func (j Job) Validate() error {
	if j.Mix != nil {
		if j.Source.Workload != "" || j.Source.TraceSHA256 != "" {
			return fmt.Errorf("sweep: a cell carries either a source or a mix, not both")
		}
		if err := j.Mix.Validate(); err != nil {
			return err
		}
		// Mix cells are deliberately narrow: the members' own calibrated
		// streams (no derived seeds), the functional simulator, and no
		// statistics fast-forward.
		if j.Seed != 0 {
			return fmt.Errorf("sweep: mix cells replay the members' own streams and cannot carry a stream seed")
		}
		if j.Warmup != 0 {
			return fmt.Errorf("sweep: mix cells do not support warmup")
		}
		if j.Timing != nil {
			return fmt.Errorf("sweep: mix cells run the functional simulator, not the cycle model")
		}
	} else if err := j.Source.Validate(); err != nil {
		return err
	}
	if j.Source.IsTrace() && j.Seed != 0 {
		return fmt.Errorf("sweep: trace cells are a fixed recording and cannot carry a stream seed")
	}
	if err := j.Mech.Validate(); err != nil {
		return err
	}
	if err := j.Config.Validate(); err != nil {
		return err
	}
	if j.Refs == 0 {
		return fmt.Errorf("sweep: job needs a positive reference count")
	}
	if j.Timing != nil {
		if j.Warmup != 0 {
			return fmt.Errorf("sweep: timing jobs do not support warmup (the cycle model has no statistics fast-forward)")
		}
		if err := j.Timing.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DeriveSeed maps a sweep-level base seed and a job key to the job's
// stream seed: a splitmix64-style finalizer over the base and the key's
// hash, with the Seed field zeroed (to avoid self-reference) and the
// Schema field zeroed (so a schema bump that does not reshape the key
// layout keeps derived streams stable). Any single cell can therefore be
// re-run in isolation from (base, key) alone. Seeds derived under an
// older key layout do not carry over, which is moot: stores written under
// an older schema are rejected on open.
func DeriveSeed(base uint64, k Key) uint64 {
	if base == 0 {
		return 0
	}
	k.Seed = 0
	k.Schema = 0
	h := k.Hash()
	var x uint64
	for i := 0; i < 16; i++ { // fold the first 16 hex digits
		x = x<<4 | uint64(hexVal(h[i]))
	}
	x ^= base
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = base
	}
	return x
}

func hexVal(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// Grid declares the axes of a sweep. Jobs enumerates the full cross
// product in a deterministic order (sources outermost, then mechanisms,
// TLB entries, TLB ways, buffer sizes, page shifts, timing points),
// dropping cells that canonicalize to an already-enumerated key (e.g. a
// table-less kind crossed with a table axis it ignores).
type Grid struct {
	// Workloads are synthetic-registry names; Traces are recorded trace
	// sources (see TraceSource). Both contribute to the source axis,
	// workloads first.
	Workloads []string
	Traces    []Source
	// Mixes are multiprogrammed sources, enumerated after the single
	// sources. Each mix is crossed with the scheduler axes: Quanta
	// (context-switch quanta in refs), Policies (table policies) and
	// ASIDs (ASID modes). An empty scheduler axis falls back to the mix's
	// own field, then to the default (DefaultQuantum / "retain" /
	// "flush"). Mix cells ignore Seed and are incompatible with Warmup
	// and the timing axes.
	Mixes      []Mix
	Quanta     []uint64
	Policies   []string
	ASIDs      []string
	Mechs      []Mech
	TLBEntries []int
	TLBWays    []int // 0 = fully associative
	Buffers    []int
	PageShifts []uint
	Refs       uint64
	Warmup     uint64
	// Seed, when nonzero, gives every synthetic cell an independent
	// derived stream seed (DeriveSeed(Seed, key)); 0 keeps the workload
	// models' own paper-calibrated streams. Trace cells always keep 0.
	Seed uint64
	// Timings is the cycle-model axis: each cell is crossed with every
	// timing point. When Timings is empty, a non-empty TimingAxes expands
	// into the axis instead (the decoupled penalty × memory-op-cost ×
	// issue-width design space); declaring both is an error. Failing both,
	// Timing set runs every cell at DefaultTiming, and everything empty
	// runs the functional simulator.
	Timings    []Timing
	TimingAxes TimingAxes
	Timing     bool
}

// Jobs enumerates and validates the grid's cells.
func (g Grid) Jobs() ([]Job, error) {
	sources := make([]Source, 0, len(g.Workloads)+len(g.Traces))
	for _, w := range g.Workloads {
		sources = append(sources, WorkloadSource(w))
	}
	sources = append(sources, g.Traces...)
	if len(sources) == 0 && len(g.Mixes) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one workload, trace or mix source")
	}
	if len(g.Mechs) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one mechanism")
	}
	if len(g.Mixes) > 0 {
		if g.Warmup != 0 {
			return nil, fmt.Errorf("sweep: mix cells do not support warmup — split warmup grids and mix grids")
		}
		if len(g.Timings) > 0 || !g.TimingAxes.Empty() || g.Timing {
			return nil, fmt.Errorf("sweep: mix cells run the functional simulator — a grid cannot cross mixes with timing axes")
		}
	}
	timings := make([]*Timing, 0, 1)
	switch {
	case len(g.Timings) > 0 && !g.TimingAxes.Empty():
		return nil, fmt.Errorf("sweep: grid declares both explicit Timings and TimingAxes — pick one cycle-model axis")
	case len(g.Timings) > 0:
		for i := range g.Timings {
			timings = append(timings, &g.Timings[i])
		}
	case !g.TimingAxes.Empty():
		pts, err := g.TimingAxes.Points()
		if err != nil {
			return nil, err
		}
		for i := range pts {
			timings = append(timings, &pts[i])
		}
	case g.Timing:
		dt := DefaultTiming()
		timings = append(timings, &dt)
	default:
		timings = append(timings, nil)
	}
	entries := g.TLBEntries
	if len(entries) == 0 {
		entries = []int{sim.Default().TLB.Entries}
	}
	ways := g.TLBWays
	if len(ways) == 0 {
		ways = []int{0}
	}
	buffers := g.Buffers
	if len(buffers) == 0 {
		buffers = []int{sim.Default().BufferEntries}
	}
	shifts := g.PageShifts
	if len(shifts) == 0 {
		shifts = []uint{sim.Default().PageShift}
	}
	refs := g.Refs
	if refs == 0 {
		refs = 1_000_000
	}

	seen := make(map[string]bool)
	var jobs []Job
	add := func(j Job) error {
		if err := j.Validate(); err != nil {
			return err
		}
		h := j.Key().Hash()
		if !seen[h] {
			seen[h] = true
			jobs = append(jobs, j)
		}
		return nil
	}
	for _, src := range sources {
		for _, m := range g.Mechs {
			for _, e := range entries {
				for _, tw := range ways {
					for _, b := range buffers {
						for _, ps := range shifts {
							for _, tm := range timings {
								j := Job{
									Source: src,
									Mech:   m.Normalize(),
									Config: sim.Config{
										TLB:           tlb.Config{Entries: e, Ways: tw},
										BufferEntries: b,
										PageShift:     ps,
									},
									Refs:   refs,
									Warmup: g.Warmup,
									Timing: tm,
								}
								if !src.IsTrace() {
									j.Seed = DeriveSeed(g.Seed, j.Key())
								}
								if err := add(j); err != nil {
									return nil, err
								}
							}
						}
					}
				}
			}
		}
	}
	for _, mix := range g.Mixes {
		quanta := g.Quanta
		if len(quanta) == 0 {
			q := mix.Quantum
			if q == 0 {
				q = DefaultQuantum
			}
			quanta = []uint64{q}
		}
		policies := g.Policies
		if len(policies) == 0 {
			policies = []string{mix.Canonical().Policy}
		}
		asids := g.ASIDs
		if len(asids) == 0 {
			asids = []string{mix.Canonical().ASID}
		}
		for _, m := range g.Mechs {
			for _, e := range entries {
				for _, tw := range ways {
					for _, b := range buffers {
						for _, ps := range shifts {
							for _, q := range quanta {
								for _, pol := range policies {
									for _, as := range asids {
										j := Job{
											Mix: &Mix{
												Sources: mix.Sources,
												Quantum: q,
												Policy:  pol,
												ASID:    as,
											},
											Mech: m.Normalize(),
											Config: sim.Config{
												TLB:           tlb.Config{Entries: e, Ways: tw},
												BufferEntries: b,
												PageShift:     ps,
											},
											Refs: refs,
										}
										if err := add(j); err != nil {
											return nil, err
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}
