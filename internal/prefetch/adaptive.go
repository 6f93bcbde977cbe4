package prefetch

import "strconv"

// AdaptiveSequential implements the Dahlgren/Dubois/Stenström variant of
// sequential prefetching the paper cites in §2.1: the prefetch degree
// (number of sequential units fetched per miss) adapts to the measured
// usefulness of recent prefetches. The paper notes that "simulations have
// shown only slight differences between these schemes" and evaluates only
// tagged SP; this implementation exists to verify that observation (the
// BenchmarkAblationAdaptiveSP target).
//
// Adaptation, following the fixed/adaptive scheme's spirit: usefulness is
// sampled over windows of adaptWindow prefetch outcomes. A buffer hit is a
// useful prefetch; a miss that was not covered is a lost opportunity. If
// the useful fraction in a window reaches adaptRaiseAt, degree doubles (up
// to adaptMaxDegree); if it falls to adaptLowerAt, degree halves (down to 1).
// Build one with NewAdaptiveSequential: the zero value has degree 0.
type AdaptiveSequential struct {
	degree int
	hits   int
	misses int
}

// The adaptation's tuning.
const (
	adaptMaxDegree = 4    // cap on the prefetch degree
	adaptWindow    = 16   // misses per adaptation decision
	adaptRaiseAt   = 0.75 // useful fraction that doubles the degree
	adaptLowerAt   = 0.40 // useful fraction that halves it
)

// NewAdaptiveSequential returns an adaptive SP at degree 1.
func NewAdaptiveSequential() *AdaptiveSequential {
	return &AdaptiveSequential{degree: 1}
}

// Name implements Prefetcher.
func (a *AdaptiveSequential) Name() string { return "SP-adaptive" }

// Degree returns the current prefetch degree (diagnostics, tests).
func (a *AdaptiveSequential) Degree() int { return a.degree }

// OnMiss implements Prefetcher.
func (a *AdaptiveSequential) OnMiss(ev Event, dst []uint64) Action {
	if ev.BufferHit {
		a.hits++
	} else {
		a.misses++
	}
	if a.hits+a.misses >= adaptWindow {
		frac := float64(a.hits) / float64(a.hits+a.misses)
		switch {
		case frac >= adaptRaiseAt && a.degree < adaptMaxDegree:
			a.degree *= 2
		case frac <= adaptLowerAt && a.degree > 1:
			a.degree /= 2
		}
		a.hits, a.misses = 0, 0
	}
	for d := 1; d <= a.degree; d++ {
		dst = append(dst, ev.VPN+uint64(d))
	}
	return Action{Prefetches: dst}
}

// Reset implements Prefetcher.
func (a *AdaptiveSequential) Reset() {
	a.degree = 1
	a.hits, a.misses = 0, 0
}

// HardwareInfo implements HardwareDescriber.
func (a *AdaptiveSequential) HardwareInfo() HardwareInfo {
	return HardwareInfo{
		Mechanism:     a.Name(),
		Rows:          "none",
		RowContents:   "degree counter and usefulness window",
		TableLocation: "on-chip",
		IndexedBy:     "n/a",
		StateMemOps:   "0",
		MaxPrefetches: strconv.Itoa(adaptMaxDegree),
	}
}
