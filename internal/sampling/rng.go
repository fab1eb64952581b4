package sampling

import "math/bits"

// Rng is a tiny splitmix64 pseudo-random generator: a single uint64 of
// state, no locks, no allocation. math/rand's global functions serialize on
// a mutex and even per-goroutine *rand.Rand values are 5x+ slower per draw
// than this; giving each sampling worker its own Rng is what lets the
// batched engine scale linearly with cores. Not cryptographically secure —
// sampling only.
//
// An Rng must not be shared between goroutines.
type Rng struct {
	state uint64
}

// NewRng returns an Rng seeded with seed. Distinct seeds yield uncorrelated
// streams (splitmix64 is the stream-splitting generator recommended for
// seeding xoshiro and friends).
func NewRng(seed uint64) *Rng {
	return &Rng{state: seed}
}

// Uint64 advances the generator and returns 64 random bits.
func (r *Rng) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand. Uses Lemire's multiply-shift reduction (no modulo, no division)
// on the high 32 bits; n must fit in 32 bits, which every neighbor list and
// vertex-pool size here does.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sampling: Intn on non-positive n")
	}
	return int(((r.Uint64() >> 32) * uint64(n)) >> 32)
}

// Int64n returns a uniform int64 in [0, n) for any positive n: reduce of
// one 64-bit word, so edge ranks over a shard's int64 edge count need no
// 32-bit precondition. It panics if n <= 0.
func (r *Rng) Int64n(n int64) int64 {
	if n <= 0 {
		panic("sampling: Int64n on non-positive n")
	}
	return reduce(r.Uint64(), n)
}

// reduce maps a uniform 64-bit word u to [0, n), n > 0: the high word of
// the 64x64-bit product u*n (Lemire's multiply-high reduction, bias at most
// n/2^64). Every TRAVERSE edge rank, local or served, is reduce of one word.
func reduce(u uint64, n int64) int64 {
	hi, _ := bits.Mul64(u, uint64(n))
	return int64(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Snapshot returns a copy of the generator that will produce exactly the
// draws r would produce next, advancing independently. Combined with Skip it
// lets a sequential scheduler hand each parallel worker the precise slice of
// the stream it would have consumed inline — the mechanism behind the
// prefetch pipeline's bit-reproducible batches.
func (r *Rng) Snapshot() Rng { return *r }

// Skip advances the generator by n draws without producing output.
func (r *Rng) Skip(n int) {
	r.state += 0x9E3779B97F4A7C15 * uint64(n)
}
