package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Parent is the ID of the span
// that caused it (-1 for a root); Count is the work the span covered, in the
// unit its layer counts (references, misses, cells), so per-unit rates are
// measured where the work happened.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so the untraced path pays one nil check per
// call. Spans may be added from several goroutines (the sweep workers'
// trace reads), hence the lock.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// add records a finished interval and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time, count int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Count: count,
	})
	return id
}

// begin opens a span whose end is set later by end.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now, 0)
}

// end closes a span opened by begin, recording the work it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now.Sub(t.t0).Nanoseconds()
	t.spans[id].Count = count
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the run's spans as one JSON document.
func (t *tracer) write(path string) error {
	doc := struct {
		RunID string `json:"run_id"`
		Spans []span `json:"spans"`
	}{t.runID, t.snapshot()}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTotal is one span name's aggregate over a run.
type layerTotal struct {
	Self  time.Duration // summed self time
	Count int64         // summed work counts
	N     int           // spans
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of the intervals its children cover (clipped to the
// span), so overlapping children — trace reads from two sweep workers —
// are not subtracted twice.
func selfTimes(spans []span) map[string]layerTotal {
	children := childIntervals(spans)
	out := make(map[string]layerTotal)
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		t := out[s.Name]
		t.Self += time.Duration(self)
		t.Count += s.Count
		t.N++
		out[s.Name] = t
	}
	return out
}

// childIntervals maps each span ID to its children's intervals.
func childIntervals(spans []span) map[int][][2]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return children
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, end := int64(0), lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// treeSummary renders the span tree with repeated siblings folded into one
// line per name: "run 1.234s (self 0.010s)" and so on, indented by depth.
func treeSummary(spans []span) string {
	type node struct {
		name   string
		dur    int64
		self   int64
		n      int
		parent int // folded parent index
	}
	children := childIntervals(spans)
	// Fold: a span maps to the node of (its parent's node, its name).
	type key struct {
		parent int
		name   string
	}
	folded := make(map[int]int) // span ID -> node index
	var nodes []node
	index := make(map[key]int)
	for _, s := range spans {
		p := -1
		if s.Parent >= 0 {
			p = folded[s.Parent]
		}
		k := key{p, s.Name}
		ni, ok := index[k]
		if !ok {
			ni = len(nodes)
			index[k] = ni
			nodes = append(nodes, node{name: s.Name, parent: p})
		}
		folded[s.ID] = ni
		d := s.End - s.Start
		nodes[ni].dur += d
		nodes[ni].self += d - covered(s.Start, s.End, children[s.ID])
		nodes[ni].n++
	}
	var out []byte
	var walk func(p, depth int)
	walk = func(p, depth int) {
		for i, n := range nodes {
			if n.parent != p {
				continue
			}
			out = fmt.Appendf(out, "%*s%s ×%d  %.4fs (self %.4fs)\n", 2*depth, "", n.name, n.n,
				float64(n.dur)/1e9, float64(n.self)/1e9)
			walk(i, depth+1)
		}
	}
	walk(-1, 0)
	return string(out)
}
