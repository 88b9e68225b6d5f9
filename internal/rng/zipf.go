package rng

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Zipf samples integers from a bounded Zipf distribution on [Min, Max]:
// P(X = Min+i) is proportional to 1/(i+1)^Alpha for i = 0..Max-Min, so the
// distribution is skewed toward the low end of the range. This matches the
// paper's transaction-length model: "length is generated according to a Zipf
// distribution over the range [1-50] ... skewed toward short transactions"
// with default skew alpha = 0.5 (Table I).
//
// Sampling is inverse-transform over a precomputed cumulative table and
// consumes exactly one uniform variate, which keeps workload replay
// deterministic. A guide table (Chen and Asau's indexed search) narrows each
// draw's binary search to the few table entries that share its bucket, so a
// draw over a 4096-key keyspace costs a constant expected number of
// comparisons rather than a search of the whole table.
type Zipf struct {
	min   int
	max   int
	alpha float64
	cdf   []float64 // cdf[i] = P(X <= min+i)
	// guide[j] is the smallest i with bucket(cdf[i]) >= j, for j = 0..m
	// where m = len(cdf); guide[m+1] = len(cdf)-1 closes the last range.
	guide []int32
	mean  float64
}

// zipfMemo shares built samplers. A Zipf holds no mutable state, so every
// workload and keyspace with the same (min, max, alpha) can draw from one
// table, on any goroutine, instead of rebuilding it (a 4096-key keyspace
// costs 4096 math.Pow per build). The memo keeps the last len(tabs)
// samplers of at most zipfMemoMax values each, replaced round robin, so it
// holds at most 8 × 12 B × 2^16, about 6.3 MB.
var zipfMemo struct {
	mu   sync.Mutex
	tabs [8]*Zipf // guarded by mu
	next int      // guarded by mu
}

// zipfMemoMax is the largest support the memo keeps.
const zipfMemoMax = 1 << 16

// NewZipf constructs a bounded Zipf sampler on [min, max] with skew alpha.
// alpha may be zero (uniform) but must be non-negative; min must not exceed
// max. Samplers are immutable, and calls with equal parameters may return
// the same one.
func NewZipf(min, max int, alpha float64) (*Zipf, error) {
	if min > max {
		return nil, fmt.Errorf("rng: zipf range [%d, %d] is empty", min, max)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("rng: zipf alpha %v must be finite and non-negative", alpha)
	}
	zipfMemo.mu.Lock()
	for _, z := range zipfMemo.tabs {
		if z != nil && z.min == min && z.max == max && z.alpha == alpha {
			zipfMemo.mu.Unlock()
			return z, nil
		}
	}
	zipfMemo.mu.Unlock()
	z := buildZipf(min, max, alpha)
	if max-min < zipfMemoMax {
		zipfMemo.mu.Lock()
		zipfMemo.tabs[zipfMemo.next] = z
		zipfMemo.next = (zipfMemo.next + 1) % len(zipfMemo.tabs)
		zipfMemo.mu.Unlock()
	}
	return z, nil
}

// buildZipf builds the sampler's tables for valid parameters.
func buildZipf(min, max int, alpha float64) *Zipf {
	n := max - min + 1
	z := &Zipf{min: min, max: max, alpha: alpha, cdf: make([]float64, n)}
	var total float64
	for i := 0; i < n; i++ {
		w := math.Pow(float64(i+1), -alpha)
		total += w
		z.cdf[i] = total
		z.mean += w * float64(min+i)
	}
	z.mean /= total
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	// Pin the final entry to exactly 1 so a uniform draw of 1-eps can never
	// fall past the end of the table due to floating-point rounding.
	z.cdf[n-1] = 1
	// bucket(1) = n, so the scan fills guide[0..n]; the sentinel bounds the
	// range of a draw whose bucket rounds up to n.
	z.guide = make([]int32, n+2)
	j := 0
	for i, c := range z.cdf {
		for b := z.bucket(c); j <= b; j++ {
			z.guide[j] = int32(i)
		}
	}
	z.guide[n+1] = int32(n - 1)
	return z
}

// bucket maps a probability in [0, 1] to its guide-table bucket
// min(floor(x*m), m), m = len(cdf). It is monotone in x, which is all the
// guide table's exactness rests on.
func (z *Zipf) bucket(x float64) int {
	return min(int(x*float64(len(z.cdf))), len(z.cdf))
}

// MustZipf is like NewZipf but panics on invalid parameters. It is intended
// for package-level defaults and tests where the parameters are constants.
func MustZipf(min, max int, alpha float64) *Zipf {
	z, err := NewZipf(min, max, alpha)
	if err != nil {
		panic(err)
	}
	return z
}

// Sample draws one value from the distribution using src: min+i for the
// smallest i with cdf[i] >= u, where u is one uniform draw in [0, 1). Such
// an i always exists because cdf ends at exactly 1 and u < 1.
//
// The guide table finds i without searching the whole table. With
// j = bucket(u): every i' < guide[j] has bucket(cdf[i']) < j, so
// cdf[i'] < u by monotonicity; and bucket(cdf[guide[j+1]]) > j forces
// cdf[guide[j+1]] > u. So i lies in [guide[j], guide[j+1]], and
// sort.SearchFloat64s — which returns the first index with cdf[i] >= u, or
// the slice length when there is none — over cdf[guide[j]:guide[j+1]]
// returns exactly i's offset in that range. The answer is the one a search
// of the whole table would give.
func (z *Zipf) Sample(src *Source) int {
	return z.quantile(src.Float64())
}

// quantile returns the value Sample draws for the uniform variate u.
func (z *Zipf) quantile(u float64) int {
	j := z.bucket(u)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	return z.min + lo + sort.SearchFloat64s(z.cdf[lo:hi], u)
}

// Mean returns the exact expected value of the distribution. The workload
// generator uses it to convert a target system utilization into a Poisson
// arrival rate (lambda = utilization / mean length).
func (z *Zipf) Mean() float64 { return z.mean }

// Min returns the smallest value in the support.
func (z *Zipf) Min() int { return z.min }

// Max returns the largest value in the support.
func (z *Zipf) Max() int { return z.max }

// Alpha returns the skew parameter.
func (z *Zipf) Alpha() float64 { return z.alpha }

// Prob returns P(X = v), or 0 if v is outside the support. Exposed for
// distribution tests and for documentation tooling.
func (z *Zipf) Prob(v int) float64 {
	if v < z.min || v > z.max {
		return 0
	}
	i := v - z.min
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
