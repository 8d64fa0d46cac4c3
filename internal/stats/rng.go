// Package stats provides deterministic pseudo-random number generation,
// probability distributions, and online statistics used throughout the
// simulator. All stochastic behaviour in dismem flows through RNG so that
// a fixed seed reproduces a simulation bit-for-bit across platforms and
// Go versions (the standard library's math/rand algorithm is not part of
// its compatibility promise across major versions; this one is ours).
package stats

import "math"

// RNG is a xoshiro256++ pseudo-random number generator seeded through
// SplitMix64. It is NOT safe for concurrent use; create one RNG per
// goroutine or per simulation stream.
type RNG struct {
	s [4]uint64

	// cached second normal variate from the last Box-Muller pair.
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator whose stream is fully determined by seed.
// Distinct seeds give statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initialises the generator state from seed via SplitMix64,
// guaranteeing a well-mixed state even for small or zero seeds.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro requires a nonzero state; SplitMix64 cannot produce four
	// zero words from any seed, but keep the guard for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasGauss = false
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new RNG seeded from this one. The child stream is
// independent of subsequent draws from the parent, which is convenient
// for giving each simulation component its own stream.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Clone returns an independent RNG with identical state: both produce
// the same subsequent stream. It backs simulation checkpointing, where
// a forked run must draw the identical random suffix.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Shuffle pseudo-randomises the order of n elements using swap, with the
// Fisher-Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Box-Muller transform with pair caching.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
