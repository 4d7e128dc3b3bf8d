// Package xrand provides a tiny, fast, deterministic PRNG (splitmix64 seeded
// xoshiro-style state, here a single splitmix64 stream) used throughout the
// simulator. Determinism matters: simulation runs must be bit-identical for
// a given seed so experiments and tests are reproducible.
package xrand

// RNG is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Derive returns a new independent generator derived from this one's seed
// and the given stream id. Used to give each simulated core its own stream.
func Derive(seed, stream uint64) *RNG {
	r := new(RNG)
	r.SeedDerived(seed, stream)
	return r
}

// Seed resets the generator in place to the state New(seed) would produce.
// Machine lifecycle resets reseed long-lived generators with it instead of
// allocating fresh ones.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// SeedDerived resets the generator in place to the state Derive(seed,
// stream) would produce.
func (r *RNG) SeedDerived(seed, stream uint64) {
	r.state = seed ^ (stream+1)*0x9e3779b97f4a7c15
	r.Uint64() // decorrelate adjacent streams
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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
