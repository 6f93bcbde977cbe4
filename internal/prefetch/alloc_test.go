package prefetch

import "testing"

// TestModernMechanismsZeroAlloc pins the steady-state allocation behaviour
// of the modern mechanisms in tier-1 (the benchmarks pin the same property,
// but only when someone runs them). After a warm-up pass that populates
// every table row — first-touch of a row may allocate its backing storage,
// which the tables then recycle on eviction — replaying the same miss
// stream must not allocate at all.
func TestModernMechanismsZeroAlloc(t *testing.T) {
	mechs := []struct {
		name string
		p    Prefetcher
	}{
		{"STMS", NewSTMS(64, 2, 4)},
		{"MASP", NewMASP(64, 2, 2)},
		{"SBFP", NewSBFP()},
	}
	// Deterministic stream: an LCG over a 16-bit page space with 64 PCs,
	// enough churn to wrap every ring and cycle every table row.
	const events = 8192
	evs := make([]Event, events)
	state := uint64(1)
	var last uint64
	for i := range evs {
		state = state*6364136223846793005 + 1442695040888963407
		vpn := (state >> 33) & 0xffff
		if vpn == last {
			vpn = (vpn + 1) & 0xffff
		}
		evs[i] = Event{VPN: vpn, PC: (state >> 50) & 0x3f, BufferHit: state&7 == 0}
		last = vpn
	}
	for _, m := range mechs {
		t.Run(m.name, func(t *testing.T) {
			scratch := make([]uint64, 0, 64)
			replay := func() {
				for _, e := range evs {
					m.p.OnMiss(e, scratch[:0])
				}
			}
			replay() // warm up: populate rows, wrap rings
			if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
				t.Fatalf("%s allocated %.1f times per replay after warm-up; the miss path must be allocation-free", m.name, allocs)
			}
		})
	}
	// The mix flush policy resets the mechanism at every context switch:
	// Reset and the refill after it must not allocate either.
	const resetEvery = 1000
	for _, m := range mechs {
		t.Run(m.name+"-reset", func(t *testing.T) {
			scratch := make([]uint64, 0, 64)
			replay := func() {
				for i, e := range evs {
					if i%resetEvery == 0 {
						m.p.Reset()
					}
					m.p.OnMiss(e, scratch[:0])
				}
			}
			replay()
			if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
				t.Fatalf("%s allocated %.1f times per replay with a Reset every %d events; Reset and the refill must be allocation-free", m.name, allocs, resetEvery)
			}
		})
	}
}
