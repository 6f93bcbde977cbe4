package sweep

import (
	"fmt"
	"strings"

	"tlbprefetch/internal/multiprog"
)

// Mix is a multiprogrammed workload: an ordered list of sources sharing one
// simulated pipeline round-robin, plus the scheduler parameters that shape
// the interleaving and the context-switch behaviour. A mix is a first-class
// source: a Job carries either a Source or a Mix, and a mix cell's key
// content-addresses the member sources (trace members by digest), the
// quantum, the table policy and the ASID mode.
type Mix struct {
	// Sources are the member reference streams, in scheduling order
	// (process 0 first). At least two; the cell's reference budget is
	// split across them (multiprog.Split).
	Sources []Source `json:"sources"`
	// Quantum is the context-switch quantum in references. 0 defaults to
	// DefaultQuantum at canonicalization time.
	Quantum uint64 `json:"quantum"`
	// Policy is the prediction-table treatment at a switch: "retain",
	// "flush" or "per-process" (multiprog.ParsePolicy). Empty defaults to
	// "retain".
	Policy string `json:"policy"`
	// ASID is the translation treatment at a switch: "flush" (no ASIDs,
	// TLB and buffer empty at every switch) or "tagged" (entries survive
	// under address-space tags). Empty defaults to "flush".
	ASID string `json:"asid"`
}

// DefaultQuantum is the context-switch quantum a mix gets when none is
// declared: 20k references, a middle-of-the-road OS time slice at the
// simulator's reference granularity.
const DefaultQuantum uint64 = 20_000

// Canonical returns the content-addressed form: member sources
// canonicalized (digests only, no paths) and the scheduler defaults
// resolved, so equivalent spellings hash identically.
func (m Mix) Canonical() Mix {
	out := Mix{
		Sources: make([]Source, len(m.Sources)),
		Quantum: m.Quantum,
		Policy:  m.Policy,
		ASID:    m.ASID,
	}
	for i, s := range m.Sources {
		out.Sources[i] = s.Canonical()
	}
	if out.Quantum == 0 {
		out.Quantum = DefaultQuantum
	}
	if out.Policy == "" {
		out.Policy = multiprog.Retain.String()
	}
	if out.ASID == "" {
		out.ASID = multiprog.ASIDFlush.String()
	}
	return out
}

// Label renders the mix for tables and progress lines: the member labels
// joined with "+", e.g. "galgel+gcc".
func (m Mix) Label() string {
	parts := make([]string, len(m.Sources))
	for i, s := range m.Sources {
		parts[i] = s.Label()
	}
	return strings.Join(parts, "+")
}

// Validate reports whether the mix can run.
func (m Mix) Validate() error {
	if len(m.Sources) < 2 {
		return fmt.Errorf("sweep: a mix interleaves at least two sources, got %d", len(m.Sources))
	}
	for i, s := range m.Sources {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sweep: mix member %d: %w", i, err)
		}
	}
	c := m.Canonical()
	if _, err := multiprog.ParsePolicy(c.Policy); err != nil {
		return err
	}
	if _, err := multiprog.ParseASID(c.ASID); err != nil {
		return err
	}
	return nil
}
