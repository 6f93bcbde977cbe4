package xrand

// MaxDraw is the largest 53-bit draw Next can map: Uint64()>>11 with every
// bit set.
const MaxDraw = 1<<53 - 1

// Exact exposes the draw-to-index mapping behind Next to the external
// tests, which pin its range over the workload registry.
func (z *Zipf) Exact(m uint64) int { return z.exact(m) }
