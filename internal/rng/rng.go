// Package rng provides deterministic pseudo-random number generation and the
// distributions needed by the workload generator of the ASETS* reproduction:
// bounded Zipf transaction lengths, exponential Poisson-process inter-arrival
// gaps, and discrete/continuous uniforms for slack factors and weights.
//
// The generators are implemented from scratch (xoshiro256** seeded through
// splitmix64) rather than delegating to math/rand so that every experiment in
// the repository replays bit-identically across Go releases and platforms.
package rng

import (
	"fmt"
	"math"
)

// SplitMix64 is a tiny 64-bit generator used to expand a single user seed
// into the four words of xoshiro256** state and to derive independent
// sub-stream seeds for parallel experiment cells.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	//lint:ignore hotpath-alloc hot callers (fault.abortDraw) never let the generator escape, so it stays on the stack after inlining
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive maps (base, run) to the run-th element of the splitmix64 stream
// seeded with base: mix(base + (run+1)*gamma). Parallel harnesses use it to
// assign every run of a sweep an independent, well-mixed seed as a pure
// function of the run's index — the assignment happens at job-construction
// time and never depends on goroutine scheduling, which is the first half of
// the determinism contract in docs/PARALLELISM.md.
func Derive(base, run uint64) uint64 {
	return NewSplitMix64(base + run*0x9e3779b97f4a7c15).Next()
}

// Source is a deterministic uniform pseudo-random source based on the
// xoshiro256** algorithm by Blackman and Vigna. It is not safe for
// concurrent use; derive one Source per goroutine via Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed. Any seed (including zero) yields a
// valid, well-mixed state because the state words come from splitmix64.
func New(seed uint64) *Source {
	src := new(Source)
	src.Seed(seed)
	return src
}

// Seed resets r to the state New(seed) starts from, so a Source held by
// value can be re-seeded in place instead of allocating a new one.
func (r *Source) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	r.s0, r.s1, r.s2, r.s3 = sm.Next(), sm.Next(), sm.Next(), sm.Next()
	// The all-zero state is the only invalid one; splitmix64 cannot produce
	// four consecutive zeros, but guard anyway for robustness.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new Source whose stream is statistically independent of
// the receiver's. It consumes one value from the receiver.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0. Lemire's
// multiply-shift rejection method keeps the result unbiased.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling over the top of the range to remove modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if lo > hi.
func (r *Source) IntRange(lo, hi int) int {
	if lo > hi {
		panic(fmt.Sprintf("rng: IntRange called with lo %d > hi %d", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

// Uniform returns a uniform float64 in [lo, hi). It panics if lo > hi.
func (r *Source) Uniform(lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("rng: Uniform called with lo %v > hi %v", lo, hi))
	}
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with the given rate
// parameter (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exp called with rate %v <= 0", rate))
	}
	// Inverse transform; 1-Float64() is in (0,1] so Log never sees zero.
	return -math.Log(1-r.Float64()) / rate
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Shuffle permutes the first n indices using the Fisher-Yates algorithm,
// calling swap for each exchange.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
