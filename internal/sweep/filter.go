package sweep

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Filter selects store cells by key fields, so a table, CSV or JSON view
// can be rendered from a store subset without re-declaring the grid that
// produced it. A filter is a conjunction of field=value constraints, e.g.
// "workload=mcf,mech=DP,misspenalty=200".
type Filter struct {
	clauses []filterClause
}

type filterClause struct {
	field, value string
}

// filterField is one recognized key field: check validates the value at
// parse time (so a typo like entries=12x errors instead of silently
// matching nothing), match applies it to a key.
type filterField struct {
	check func(v string) error
	match func(k Key, v string) bool
}

func anyString(string) error { return nil }

func checkInt(v string) error {
	_, err := strconv.Atoi(v)
	return err
}

func checkUint(v string) error {
	_, err := strconv.ParseUint(v, 10, 64)
	return err
}

func checkBool(v string) error {
	_, err := strconv.ParseBool(v)
	return err
}

// filterFields maps each recognized field name to its validator + matcher.
var filterFields = map[string]filterField{
	"workload": {anyString, func(k Key, v string) bool {
		return slices.ContainsFunc(k.Sources(), func(s Source) bool { return s.Workload == v })
	}},
	"trace": {anyString, func(k Key, v string) bool {
		want := strings.ToLower(v)
		return slices.ContainsFunc(k.Sources(), func(s Source) bool {
			return s.IsTrace() && strings.HasPrefix(s.TraceSHA256, want)
		})
	}},
	"source": {anyString, func(k Key, v string) bool { return k.SourceLabel() == v }},
	"mix": {checkBool, func(k Key, v string) bool {
		want, _ := strconv.ParseBool(v)
		return (k.Mix != nil) == want
	}},
	"quantum": {checkUint, func(k Key, v string) bool { return k.Mix != nil && matchUint(k.Mix.Quantum, v) }},
	"policy":  {anyString, func(k Key, v string) bool { return k.Mix != nil && k.Mix.Policy == v }},
	"asid":    {anyString, func(k Key, v string) bool { return k.Mix != nil && k.Mix.ASID == v }},
	"mech": {anyString, func(k Key, v string) bool {
		return strings.EqualFold(k.Mech.Kind, v) || strings.EqualFold(k.Mech.Label(), v)
	}},
	"rows":      {checkInt, func(k Key, v string) bool { return matchInt(k.Mech.Rows, v) }},
	"ways":      {checkInt, func(k Key, v string) bool { return matchInt(k.Mech.Ways, v) }},
	"slots":     {checkInt, func(k Key, v string) bool { return matchInt(k.Mech.Slots, v) }},
	"entries":   {checkInt, func(k Key, v string) bool { return matchInt(k.TLBEntries, v) }},
	"tlbways":   {checkInt, func(k Key, v string) bool { return matchInt(k.TLBWays, v) }},
	"buffer":    {checkInt, func(k Key, v string) bool { return matchInt(k.Buffer, v) }},
	"pageshift": {checkInt, func(k Key, v string) bool { return matchInt(int(k.PageShift), v) }},
	"refs":      {checkUint, func(k Key, v string) bool { return matchUint(k.Refs, v) }},
	"warmup":    {checkUint, func(k Key, v string) bool { return matchUint(k.Warmup, v) }},
	"seed":      {checkUint, func(k Key, v string) bool { return matchUint(k.Seed, v) }},
	"timing": {checkBool, func(k Key, v string) bool {
		want, _ := strconv.ParseBool(v)
		return (k.Timing != nil) == want
	}},
	"misspenalty":  {checkUint, func(k Key, v string) bool { return k.Timing != nil && matchUint(k.Timing.MissPenalty, v) }},
	"memoplatency": {checkUint, func(k Key, v string) bool { return k.Timing != nil && matchUint(k.Timing.MemOpLatency, v) }},
	"memopocc":     {checkUint, func(k Key, v string) bool { return k.Timing != nil && matchUint(k.Timing.MemOpOccupancy, v) }},
	"refspercycle": {checkUint, func(k Key, v string) bool { return k.Timing != nil && matchUint(k.Timing.RefsPerCycle, v) }},
}

func matchInt(have int, v string) bool {
	want, err := strconv.Atoi(v)
	return err == nil && have == want
}

func matchUint(have uint64, v string) bool {
	want, err := strconv.ParseUint(v, 10, 64)
	return err == nil && have == want
}

// filterFieldNames lists the recognized fields, sorted, for error text.
func filterFieldNames() string {
	names := make([]string, 0, len(filterFields))
	for n := range filterFields {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseFilter parses a comma-separated list of field=value constraints.
// An empty spec is a filter that matches everything.
func ParseFilter(spec string) (Filter, error) {
	var f Filter
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		field, value, ok := strings.Cut(tok, "=")
		if !ok {
			return f, fmt.Errorf("sweep: filter clause %q is not field=value", tok)
		}
		field = strings.ToLower(strings.TrimSpace(field))
		value = strings.TrimSpace(value)
		ff, known := filterFields[field]
		if !known {
			return f, fmt.Errorf("sweep: unknown filter field %q (known: %s)", field, filterFieldNames())
		}
		if err := ff.check(value); err != nil {
			return f, fmt.Errorf("sweep: filter %s=%s: bad value: %v", field, value, err)
		}
		f.clauses = append(f.clauses, filterClause{field: field, value: value})
	}
	return f, nil
}

// Match reports whether every clause accepts the key.
func (f Filter) Match(k Key) bool {
	for _, c := range f.clauses {
		if !filterFields[c.field].match(k, c.value) {
			return false
		}
	}
	return true
}

// Empty reports whether the filter has no clauses (and so matches every
// key).
func (f Filter) Empty() bool { return len(f.clauses) == 0 }

// ClauseMatch pairs one parsed clause, rendered back as "field=value", with
// how many of the examined keys that clause alone accepts.
type ClauseMatch struct {
	Clause  string
	Matches int
}

// ClauseMatches evaluates every clause independently against the keys — the
// diagnostic behind "0 cells match": a clause with zero solo matches names
// the constraint that cannot be satisfied at all, while all-positive solo
// counts mean only the conjunction is empty.
func (f Filter) ClauseMatches(keys []Key) []ClauseMatch {
	out := make([]ClauseMatch, len(f.clauses))
	for i, c := range f.clauses {
		out[i] = ClauseMatch{Clause: c.field + "=" + c.value}
		for _, k := range keys {
			if filterFields[c.field].match(k, c.value) {
				out[i].Matches++
			}
		}
	}
	return out
}

// Select returns the store cells matching the filter, sorted by key fields
// (source, mechanism, geometry, timing) — a stable, human-oriented order
// that does not depend on hash values. Matching runs against the store's
// index; only the segments holding matched cells are read, so a narrow
// filter over a large sharded store costs O(matched segments), not
// O(store).
func (f Filter) Select(s *Store) ([]Result, error) {
	out, err := s.matching(f.Match)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		return keyLess(out[i].Key, out[j].Key)
	})
	return out, nil
}

// keyLess orders keys by (source label, mech label, TLB entries, TLB ways,
// buffer, page shift, refs, warmup, seed), then by the scheduler axis
// (quantum, policy, asid — mix cells only) and the timing axis (miss
// penalty, memop latency, issue width) — a stable, human-oriented order
// that never consults hash values.
func keyLess(a, b Key) bool {
	if x, y := a.SourceLabel(), b.SourceLabel(); x != y {
		return x < y
	}
	if x, y := a.Mech.Label(), b.Mech.Label(); x != y {
		return x < y
	}
	if a.TLBEntries != b.TLBEntries {
		return a.TLBEntries < b.TLBEntries
	}
	if a.TLBWays != b.TLBWays {
		return a.TLBWays < b.TLBWays
	}
	if a.Buffer != b.Buffer {
		return a.Buffer < b.Buffer
	}
	if a.PageShift != b.PageShift {
		return a.PageShift < b.PageShift
	}
	if a.Refs != b.Refs {
		return a.Refs < b.Refs
	}
	if a.Warmup != b.Warmup {
		return a.Warmup < b.Warmup
	}
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	var qa, qb uint64
	var pa, pb, aa, ab string
	if a.Mix != nil {
		qa, pa, aa = a.Mix.Quantum, a.Mix.Policy, a.Mix.ASID
	}
	if b.Mix != nil {
		qb, pb, ab = b.Mix.Quantum, b.Mix.Policy, b.Mix.ASID
	}
	if qa != qb {
		return qa < qb
	}
	if pa != pb {
		return pa < pb
	}
	if aa != ab {
		return aa < ab
	}
	var ta, tb, la, lb, wa, wb uint64
	if a.Timing != nil {
		ta, la, wa = a.Timing.MissPenalty, a.Timing.MemOpLatency, a.Timing.RefsPerCycle
	}
	if b.Timing != nil {
		tb, lb, wb = b.Timing.MissPenalty, b.Timing.MemOpLatency, b.Timing.RefsPerCycle
	}
	if ta != tb {
		return ta < tb
	}
	if la != lb {
		return la < lb
	}
	return wa < wb
}
