package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// gateSample is how many cells of a workload the correctness gate
// recomputes through the plain per-reference path.
const gateSample = 12

// sampleIndices spreads n indices evenly over a list of the given length.
func sampleIndices(length, n int) []int {
	if n > length {
		n = length
	}
	out := make([]int, n)
	for k := range out {
		out[k] = k * length / n
	}
	return out
}

// recompute re-simulates a sample of the plan's cells one reference at a
// time through the public simulator constructors — sim.New + Ref,
// sim.NewTiming + Ref, or multiprog.NewExec fed by NewStreamInterleaver —
// and returns how many of them disagree with the sweep's results.
func (p *plan) recompute(results []sweep.Result) (checked, failed int, err error) {
	for _, i := range sampleIndices(len(p.jobs), gateSample) {
		ok, err := recomputeCell(p.jobs[i], results[i])
		if err != nil {
			return checked, failed, err
		}
		checked++
		if !ok {
			failed++
		}
	}
	return checked, failed, nil
}

// recomputeCell reports whether one cell's stored result matches a direct
// per-reference simulation.
func recomputeCell(j sweep.Job, res sweep.Result) (bool, error) {
	switch {
	case j.Mix != nil:
		got, err := directMix(j)
		if err != nil {
			return false, err
		}
		return got.Aggregate == res.Stats && equalStats(got.Apps, res.Apps), nil
	case j.Source.IsTrace():
		return false, fmt.Errorf("gate: single-trace cells are not part of any workload")
	case j.Timing != nil:
		s := sim.NewTiming(j.Timing.Config(j.Config), j.Mech.Build())
		generate(j.Source.Workload, j.Seed, j.Refs, s.Ref)
		return res.Timing != nil && s.Stats() == *res.Timing, nil
	default:
		s := sim.New(j.Config, j.Mech.Build())
		var n uint64
		generate(j.Source.Workload, j.Seed, j.Warmup+j.Refs, func(pc, vaddr uint64) {
			if n == j.Warmup && n > 0 {
				s.ResetStats()
			}
			n++
			s.Ref(pc, vaddr)
		})
		return s.Stats() == res.Stats, nil
	}
}

func equalStats(a, b []sim.Stats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// generate feeds a synthetic source's stream, at the cell's seed, to ref.
func generate(name string, seed, n uint64, ref func(pc, vaddr uint64)) {
	w, _ := workload.ByName(name)
	if seed != 0 {
		w.Seed = seed
	}
	workload.Generate(w, n, func(pc, vaddr uint64) bool {
		ref(pc, vaddr)
		return true
	})
}

// directMix runs a mix cell through an Exec fed reference by reference by a
// StreamInterleaver over the member recordings.
func directMix(j sweep.Job) (multiprog.ExecResult, error) {
	m := j.Mix.Canonical()
	streams, closers, err := openMembers(*j.Mix, j.Refs)
	defer closeAll(closers)
	if err != nil {
		return multiprog.ExecResult{}, err
	}
	pol, err := multiprog.ParsePolicy(m.Policy)
	if err != nil {
		return multiprog.ExecResult{}, err
	}
	asid, err := multiprog.ParseASID(m.ASID)
	if err != nil {
		return multiprog.ExecResult{}, err
	}
	mech := j.Mech
	e := multiprog.NewExec(j.Config, pol, asid, len(streams), func() prefetch.Prefetcher { return mech.Build() })
	it := multiprog.NewStreamInterleaver(streams, m.Quantum)
	for {
		proc, pc, vaddr, ok := it.Next()
		if !ok {
			break
		}
		e.Ref(proc, pc, vaddr)
	}
	return e.Results(), it.Err()
}

// openMembers opens every member recording of a mix, each clipped to its
// share of the cell's references.
func openMembers(m sweep.Mix, refs uint64) ([]trace.BatchReader, []io.Closer, error) {
	shares := multiprog.Split(refs, len(m.Sources))
	var (
		streams []trace.BatchReader
		closers []io.Closer
	)
	for i, src := range m.Sources {
		r, c, err := trace.OpenFile(src.TracePath)
		if err != nil {
			return nil, closers, err
		}
		closers = append(closers, c)
		streams = append(streams, &limitReader{b: trace.AsBatch(r), left: shares[i]})
	}
	return streams, closers, nil
}

func closeAll(cs []io.Closer) {
	for _, c := range cs {
		c.Close()
	}
}

// limitReader delivers at most left references of a batch reader.
type limitReader struct {
	b    trace.BatchReader
	left uint64
}

// ReadBatch implements trace.BatchReader.
func (l *limitReader) ReadBatch(dst []trace.Ref) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n, err := l.b.ReadBatch(dst)
	l.left -= uint64(n)
	return n, err
}

// table3AbsErr is the model's error against the paper: the mean absolute
// difference between the simulated RP and DP normalized cycles at the
// paper's default timing point and the published values, which it reads
// from the "paper RP"/"paper DP" columns of experiments.FormatTable3. ok is
// false when the results hold no default-point Table 3 cells.
func table3AbsErr(results []sweep.Result) (float64, bool, error) {
	def := sweep.DefaultTiming().Normalize()
	type row struct{ base, rp, dp *sim.TimingStats }
	rows := make(map[string]*row)
	for i := range results {
		k := results[i].Key
		if k.Timing == nil || *k.Timing != def || k.Mix != nil {
			continue
		}
		r := rows[k.Source.Workload]
		if r == nil {
			r = &row{}
			rows[k.Source.Workload] = r
		}
		switch k.Mech.Kind {
		case "none":
			r.base = results[i].Timing
		case "RP":
			r.rp = results[i].Timing
		case "DP":
			r.dp = results[i].Timing
		}
	}
	var t3 []experiments.Table3Row
	for _, app := range experiments.Table3AppNames() {
		r := rows[app]
		if r == nil || r.base == nil || r.rp == nil || r.dp == nil || r.base.Cycles == 0 {
			continue
		}
		t3 = append(t3, experiments.Table3Row{
			App:          app,
			RPNormalized: float64(r.rp.Cycles) / float64(r.base.Cycles),
			DPNormalized: float64(r.dp.Cycles) / float64(r.base.Cycles),
			RPStats:      *r.rp,
			DPStats:      *r.dp,
		})
	}
	if len(t3) == 0 {
		return 0, false, nil
	}
	paper, err := publishedTable3(experiments.FormatTable3(t3))
	if err != nil {
		return 0, false, err
	}
	var sum float64
	for _, r := range t3 {
		p, ok := paper[r.App]
		if !ok {
			return 0, false, fmt.Errorf("gate: Table 3 output has no published row for %s", r.App)
		}
		sum += math.Abs(r.RPNormalized-p[0]) + math.Abs(r.DPNormalized-p[1])
	}
	return sum / float64(2*len(t3)), true, nil
}

// publishedTable3 reads the "paper RP" and "paper DP" columns of the
// rendered Table 3, locating columns by the dashed separator row.
func publishedTable3(text string) (map[string][2]float64, error) {
	lines := strings.Split(text, "\n")
	sep := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "---") {
			sep = i
			break
		}
	}
	if sep < 1 {
		return nil, fmt.Errorf("gate: Table 3 output has no column separator")
	}
	// Column spans from the dashes.
	var cols [][2]int
	for i := 0; i < len(lines[sep]); {
		if lines[sep][i] != '-' {
			i++
			continue
		}
		j := i
		for j < len(lines[sep]) && lines[sep][j] == '-' {
			j++
		}
		cols = append(cols, [2]int{i, j})
		i = j
	}
	cell := func(line string, c [2]int) string {
		if c[0] >= len(line) {
			return ""
		}
		return strings.TrimSpace(line[c[0]:min(c[1], len(line))])
	}
	rpCol, dpCol := -1, -1
	for ci, c := range cols {
		switch cell(lines[sep-1], c) {
		case "paper RP":
			rpCol = ci
		case "paper DP":
			dpCol = ci
		}
	}
	if rpCol < 0 || dpCol < 0 {
		return nil, fmt.Errorf("gate: Table 3 output lacks the paper RP/DP columns")
	}
	out := make(map[string][2]float64)
	for _, l := range lines[sep+1:] {
		if strings.TrimSpace(l) == "" {
			continue
		}
		rp, err1 := strconv.ParseFloat(cell(l, cols[rpCol]), 64)
		dp, err2 := strconv.ParseFloat(cell(l, cols[dpCol]), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("gate: unreadable Table 3 row %q", l)
		}
		out[cell(l, cols[0])] = [2]float64{rp, dp}
	}
	return out, nil
}
