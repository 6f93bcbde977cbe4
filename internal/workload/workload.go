// Package workload synthesizes the memory reference streams of the 56
// applications the paper evaluates (26 SPEC CPU2000, 20 MediaBench, 5 Etch,
// 5 Pointer-Intensive).
//
// The paper ran real binaries under SimpleScalar and Shade. Those binaries,
// inputs and trace files are not available here, so each application is
// modelled as a deterministic composition of reference-behaviour primitives
// drawn from the taxonomy the paper itself lays out in §1:
//
//	(a) regular/strided accesses to data touched once         -> FreshScan
//	(b) regular/strided accesses to data touched repeatedly   -> Seq, Stride, Tiles
//	(c) strided accesses whose stride changes over time        -> phase lists, Tiles pass orders
//	(d) irregular but repeating reference patterns             -> PointerChase, BlockMotif, Alternating
//	(e) no regularity                                          -> RandomWalk
//
// Each named application model carries a PaperNote citing the sentence of
// the paper's §3.2 narrative it encodes (which mechanism wins and why).
// `experiments table2` and `experiments table3` print the resulting
// accuracies next to the published values, and docs/EXPERIMENTS.md walks
// the workflows that regenerate them.
package workload

import (
	"fmt"
	"sort"

	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/xrand"
)

// PageBytes is the page size the generators are calibrated in. Models think
// in 4 KB pages but emit full byte addresses with intra-page offsets, so
// simulations at other page sizes (the ext-pagesize experiment) remain
// meaningful.
const PageBytes = 4096

// EmitFunc consumes one generated reference; returning false stops
// generation.
type EmitFunc func(pc, vaddr uint64) bool

// Phase generates one iteration (one outer-loop pass) of a program's
// reference behaviour. Run must return false as soon as emit does.
// Phases may keep state across calls (e.g. FreshScan's advancing base);
// Workload.Build constructs fresh instances per generation run.
type Phase interface {
	Run(emit EmitFunc, r *xrand.Rand) bool
}

// PhaseFunc adapts a plain function to Phase, for one-off streams (the
// cache-level extension writes block-granular streams this way).
type PhaseFunc func(emit EmitFunc, r *xrand.Rand) bool

// Run implements Phase.
func (f PhaseFunc) Run(emit EmitFunc, r *xrand.Rand) bool { return f(emit, r) }

// Workload is a named application model.
type Workload struct {
	// Name matches the paper's benchmark name (e.g. "swim", "adpcm-enc").
	Name string
	// Suite is one of "SPEC", "MediaBench", "Etch", "PointerIntensive".
	Suite string
	// PaperNote cites the behaviour the model encodes.
	PaperNote string
	// Seed makes the model's stream deterministic.
	Seed uint64
	// Build returns fresh phase instances. Generate cycles through the
	// list until the reference budget is exhausted.
	Build func() []Phase
}

// Generate produces exactly refs references (or fewer if the sink stops
// early), cycling the workload's phase list. It returns the number emitted.
func Generate(w Workload, refs uint64, raw EmitFunc) uint64 {
	if w.Build == nil {
		return 0
	}
	r := xrand.New(w.Seed)
	phases := w.Build()
	if len(phases) == 0 {
		return 0
	}
	var emitted uint64
	stopped := false
	emit := func(pc, vaddr uint64) bool {
		if stopped || emitted >= refs {
			stopped = true
			return false
		}
		emitted++
		if !raw(pc, vaddr) || emitted >= refs {
			stopped = true
			return false
		}
		return true
	}
	for !stopped && emitted < refs {
		before := emitted
		for _, p := range phases {
			if !p.Run(emit, r) {
				stopped = true
				break
			}
		}
		if emitted == before {
			// A phase list that emits nothing would spin forever.
			break
		}
	}
	return emitted
}

// GenerateTo streams refs references into a trace writer without
// materializing them. It returns the count written and the first write
// error, if any.
func GenerateTo(w Workload, refs uint64, dst trace.Writer) (uint64, error) {
	var werr error
	n := Generate(w, refs, func(pc, vaddr uint64) bool {
		if err := dst.Write(trace.Ref{PC: pc, VAddr: vaddr}); err != nil {
			werr = err
			return false
		}
		return true
	})
	return n, werr
}

// registry of all 56 workloads, populated by the apps_*.go files' init
// functions.
var registry []Workload

func register(w Workload) {
	if w.Name == "" || w.Build == nil {
		panic("workload: register requires Name and Build")
	}
	for _, e := range registry {
		if e.Name == w.Name {
			panic(fmt.Sprintf("workload: duplicate registration of %q", w.Name))
		}
	}
	registry = append(registry, w)
}

// All returns every registered workload, sorted by suite then name.
func All() []Workload {
	out := append([]Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the workloads of one suite in registration (paper figure)
// order.
func Suite(name string) []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Suite == name {
			out = append(out, w)
		}
	}
	return out
}

// ByName looks a workload up by its benchmark name.
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
