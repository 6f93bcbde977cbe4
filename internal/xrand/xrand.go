// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by the synthetic workload models.
//
// The simulator's results must be bit-for-bit reproducible across runs, Go
// releases and platforms: the sweep store content-addresses exact results,
// docs/EXPERIMENTS.md pins expected output snippets, and the test suite
// asserts qualitative shapes of those numbers. math/rand's stream is only
// guaranteed stable for a given Go release, so we pin our own generator:
// splitmix64 for seeding and xoshiro256** for the stream (public domain
// algorithms by Vigna et al.).
package xrand

import "math"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds still produce uncorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent theta in
// (0, 1]; small indices are hottest. It uses the classic inverse-CDF
// approximation from Knuth/Gray et al., adequate for workload skew modelling.
type Zipf struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	theta float64
}

// NewZipf builds a Zipf sampler over [0, n) with skew theta (0 < theta < 1
// for classic skew; larger theta = more skew toward index 0).
func NewZipf(n int, theta float64) *Zipf {
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / pow(float64(i), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Next draws the next Zipf-distributed index in [0, n) using r as the
// entropy source, one Uint64 per draw.
func (z *Zipf) Next(r *Rand) int { return z.exact(r.Uint64() >> 11) }

// exact maps the 53-bit draw m (the integer behind Float64) to its index.
// The inverse CDF reaches n as u approaches 1, so the result is clamped to
// n-1 to keep Next's range contract.
func (z *Zipf) exact(m uint64) int {
	u := float64(m) / float64(1<<53)
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+pow(0.5, z.theta) {
		return 1
	}
	return min(int(float64(z.n)*pow(z.eta*u-z.eta+1, z.alpha)), z.n-1)
}
