package prefetch

import "tlbprefetch/internal/table"

// aspState is the Chen & Baer reference-prediction-table state machine.
// A prefetch is issued only from the steady state, which requires the stride
// to have stayed unchanged across at least two successive intervals — the
// paper's "prefetch is initiated only when there is no change in the stride
// for more than two references by that instruction. Such a safeguard tries
// to avoid spurious changes in strides."
type aspState uint8

const (
	aspInitial   aspState = iota // first sighting; stride unestablished
	aspTransient                 // stride just changed; candidate recorded
	aspSteady                    // stride confirmed; predictions issued
	aspNoPred                    // stride erratic; predictions suppressed
)

func (s aspState) String() string {
	switch s {
	case aspInitial:
		return "initial"
	case aspTransient:
		return "transient"
	case aspSteady:
		return "steady"
	case aspNoPred:
		return "no-pred"
	}
	return "?"
}

// aspRow is one RPT row: "(i) the address that was referenced the last time
// the PC came to this instruction, (ii) the corresponding stride, and (iii)
// a state" (paper §2.2). The PC tag is kept by the table.
type aspRow struct {
	prevVPN uint64
	stride  int64
	state   aspState
}

// ASP is arbitrary stride prefetching: a PC-indexed reference prediction
// table with one slot per row, issuing at most one prefetch (current page +
// stride) per miss.
type ASP struct {
	t *table.Table[aspRow]
}

// NewASP builds an ASP prefetcher with an entries-row, ways-associative RPT.
// The paper sweeps entries in {32..1024}; ways=1 (direct-mapped) is the
// configuration shown in its figures.
func NewASP(entries, ways int) *ASP {
	return &ASP{t: table.New[aspRow](entries, ways)}
}

// Name implements Prefetcher.
func (a *ASP) Name() string { return "ASP" }

// OnMiss implements Prefetcher.
func (a *ASP) OnMiss(ev Event, dst []uint64) Action {
	row, ok := a.t.Lookup(ev.PC)
	if !ok {
		a.t.Insert(ev.PC, aspRow{prevVPN: ev.VPN, state: aspInitial})
		return Action{}
	}
	stride := int64(ev.VPN) - int64(row.prevVPN)
	correct := stride == row.stride
	switch row.state {
	case aspInitial:
		if correct {
			row.state = aspSteady
		} else {
			row.stride = stride
			row.state = aspTransient
		}
	case aspTransient:
		if correct {
			row.state = aspSteady
		} else {
			row.stride = stride
			row.state = aspNoPred
		}
	case aspSteady:
		if !correct {
			// Chen & Baer: steady + incorrect -> initial, stride kept
			// (one mispredict is forgiven before relearning).
			row.state = aspInitial
		}
	case aspNoPred:
		if correct {
			row.state = aspTransient
		} else {
			row.stride = stride
		}
	}
	row.prevVPN = ev.VPN
	if row.state == aspSteady && row.stride != 0 {
		return Action{Prefetches: append(dst, uint64(int64(ev.VPN)+row.stride))}
	}
	return Action{}
}

// Reset implements Prefetcher.
func (a *ASP) Reset() { a.t.Reset() }

// TableLen reports occupied RPT rows (diagnostics).
func (a *ASP) TableLen() int { return a.t.Len() }

// HardwareInfo implements HardwareDescriber (Table 1's ASP column).
func (a *ASP) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     "ASP",
		Rows:          "r",
		RowContents:   "PC tag, page #, stride and state",
		TableLocation: "on-chip",
		IndexedBy:     "PC",
		StateMemOps:   "0",
		MaxPrefetches: "1",
	}
}
