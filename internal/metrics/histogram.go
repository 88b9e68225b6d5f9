package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Histogram accumulates non-negative observations (tardiness, response
// times) into power-of-two buckets: bucket i covers [2^i, 2^(i+1)), with
// a dedicated zero bucket because "met the deadline" is the interesting mass
// point of every tardiness distribution. The geometric layout keeps
// resolution proportional to magnitude across the 4-5 decades a saturated
// run produces.
type Histogram struct {
	zero    int
	buckets []int
	n       int
	sum     float64
	max     float64
}

// NewHistogram returns an empty histogram.
//
//lint:coldpath histogram construction happens at metric-registration time
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one observation. Negative values panic: tardiness and
// response times are non-negative by construction, so a negative value is a
// caller bug worth surfacing immediately.
func (h *Histogram) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("metrics: histogram observation %v must be non-negative", v))
	}
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v == 0 {
		h.zero++
		return
	}
	// floor(log2(v)) extracted from the float representation: Frexp yields
	// v = frac × 2^exp with frac in [0.5, 1), so the floor is exactly exp-1 —
	// no transcendental call on the observation path, and exact at bucket
	// boundaries where Log would round.
	_, exp := math.Frexp(v)
	idx := exp - 1
	if idx < 0 {
		idx = 0 // sub-unit values share the first bucket
	}
	if len(h.buckets) <= idx {
		h.extend(idx)
	}
	h.buckets[idx]++
}

// extend grows the bucket array until idx is addressable. Warm-up-only:
// buckets reach ~log2(max) entries, then stay fixed, keeping the
// steady-state observation path allocation-free.
//
//lint:coldpath bucket growth runs only during warm-up; steady-state Add never reaches it
func (h *Histogram) extend(idx int) {
	for len(h.buckets) <= idx {
		h.buckets = append(h.buckets, 0)
	}
}

// Merge folds other into h: counts and bucket occupancies add, the running
// sum accumulates (h.sum + other.sum, in that order — merging registries in
// a fixed order therefore yields bit-identical sums), and the maximum is the
// larger of the two. other is not modified.
func (h *Histogram) Merge(other *Histogram) {
	h.n += other.n
	h.zero += other.zero
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	for len(h.buckets) < len(other.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// N returns the number of observations.
func (h *Histogram) N() int { return h.n }

// Mean returns the running mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() float64 { return h.max }

// Sum returns the exact running sum of all observations, accumulated in
// observation order — exporters that must agree bit-for-bit with an
// independently kept running sum rely on this.
func (h *Histogram) Sum() float64 { return h.sum }

// Bucket is one histogram cell for exporters. The zero bucket (exactly-zero
// observations) has Upper == 0; bucket i of the power-of-two layout has
// Upper == 2^(i+1) and covers observations in [2^i, 2^(i+1)) —
// except the first, which also absorbs sub-unit values.
type Bucket struct {
	Upper float64
	Count int
}

// Buckets returns every cell in ascending upper-edge order, zero bucket
// first, including empty cells up to the highest occupied one. The counts
// are per-bucket, not cumulative.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.buckets)+1)
	out = append(out, Bucket{Upper: 0, Count: h.zero})
	for i, c := range h.buckets {
		out = append(out, Bucket{Upper: math.Pow(2, float64(i+1)), Count: c})
	}
	return out
}

// ZeroFraction returns the share of exactly-zero observations (transactions
// that met their deadline, for a tardiness histogram).
func (h *Histogram) ZeroFraction() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.zero) / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using the
// bucket upper edges: the true quantile lies within one bucket width below.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int(math.Ceil(q * float64(h.n)))
	acc := h.zero
	if acc >= target {
		return 0
	}
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			return math.Pow(2, float64(i+1))
		}
	}
	return h.max
}

// String renders an ASCII bar view, one row per non-empty bucket.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3f max=%.3f zero=%.1f%%\n", h.n, h.Mean(), h.max, 100*h.ZeroFraction())
	if h.zero > 0 {
		fmt.Fprintf(&b, "%12s %6d %s\n", "=0", h.zero, bar(h.zero, h.n))
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := math.Pow(2, float64(i))
		hi := math.Pow(2, float64(i+1))
		fmt.Fprintf(&b, "%5.1f-%-6.1f %6d %s\n", lo, hi, c, bar(c, h.n))
	}
	return b.String()
}

func bar(count, total int) string {
	if total == 0 {
		return ""
	}
	width := count * 40 / total
	return strings.Repeat("#", width)
}
