package metrics

import (
	"fmt"
	"math"
)

// Sketch is a deterministic, mergeable quantile sketch with fixed geometric
// bucket boundaries (the DDSketch family): bucket i covers values in
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha) and alpha = 1%, so
// every quantile estimate is the upper edge of a bucket and carries a
// relative error bounded by 1%. Because the boundaries are fixed — never a
// function of the data — two sketches built from the same observations in
// any order hold identical bucket counts, and sketches from disjoint runs
// merge exactly (counts add cell by cell). That fixed-boundary property is what lets the
// parallel experiment engine keep windowed percentiles bit-identical between
// serial and multi-worker runs (docs/PARALLELISM.md).
//
// Like Histogram, a dedicated zero bucket carries the "met the deadline"
// mass point of tardiness distributions, and the running Sum accumulates in
// observation order (merge adds the other sketch's sum, so merging in job
// order reproduces a serial run's sum bit for bit; see Merge).
//
// Bucket counts live in one of two representations. A sketch with at most
// sketchInline occupied buckets keeps them inline, as ascending
// (index, count) pairs — the common case for the span layer's windowed
// cells, which mostly hold one or two observations — so it needs no bucket
// array at all. Past that the sketch goes dense: buckets[i] counts bucket
// lo+i, and the array grows geometrically toward whichever end needs room.
// Both representations hold exactly the same occupied buckets and counts,
// and every read walks them through one ascending iterator (bucketIter), so
// the representation never shows in any count, quantile, cell or merge.
//
// The zero Sketch is empty and ready to use.
type Sketch struct {
	zero    int64
	n       int64
	sum     float64
	max     float64
	lo      int32               // dense: bucket index of buckets[0]
	nIn     int8                // inline: occupied entries of inIdx/inCnt
	inIdx   [sketchInline]int16 // inline: ascending bucket indices
	inCnt   [sketchInline]int64 // inline: their counts (never zero)
	buckets []int64             // dense bucket counts; non-nil once dense
}

// sketchAlpha is every sketch's relative accuracy: quantile estimates are
// within 1% of the true value.
const sketchAlpha = 0.01

// sketchGamma is the ratio between consecutive bucket edges, and
// sketchLogGamma its logarithm, the bucket-index divisor.
var (
	sketchGamma    = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchLogGamma = math.Log(sketchGamma)
)

// sketchInline is the number of occupied buckets a sketch keeps inline
// before it allocates a dense bucket array.
const sketchInline = 4

// sketchIndexBound clamps bucket indices: with alpha = 1% the bound covers
// values from roughly 1e-17 to 1e+17. Observations beyond it collapse into
// the edge buckets (Max still records the exact extreme).
const sketchIndexBound = 4096

// NewSketch returns an empty sketch.
//
//lint:coldpath sketch construction happens at metric-registration time
func NewSketch() *Sketch { return &Sketch{} }

// Add records one observation. Negative and NaN values panic: tardiness,
// response times and slowdowns are non-negative by construction, so anything
// else is a caller bug worth surfacing immediately.
func (s *Sketch) Add(v float64) { s.AddIndexed(v, BucketIndex(v)) }

// AddIndexed records v, whose bucket is idx = BucketIndex(v): Add without
// the logarithm, for a caller that files one value into several sketches
// and computes its bucket once. The result is exactly Add's.
func (s *Sketch) AddIndexed(v float64, idx int) {
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if v == 0 {
		s.zero++
		return
	}
	s.addAt(idx, 1)
}

// BucketIndex returns the bucket Add files v under: for a positive value the
// smallest i with gamma^i >= v, clamped to [-4096, 4096]; 0 for zero, which
// goes to the zero bucket instead. Negative and NaN values panic as in Add.
func BucketIndex(v float64) int {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("metrics: sketch observation %v must be non-negative", v))
	}
	if v == 0 {
		return 0
	}
	idx := int(math.Ceil(math.Log(v) / sketchLogGamma))
	if idx < -sketchIndexBound {
		idx = -sketchIndexBound
	}
	if idx > sketchIndexBound {
		idx = sketchIndexBound
	}
	return idx
}

// addAt adds c (> 0) to bucket idx in whichever representation the sketch
// is in, going dense when a new bucket would overflow the inline entries.
func (s *Sketch) addAt(idx int, c int64) {
	if s.buckets != nil {
		if idx < int(s.lo) || idx >= int(s.lo)+len(s.buckets) {
			s.grow(idx)
		}
		s.buckets[idx-int(s.lo)] += c
		return
	}
	n := int(s.nIn)
	i := 0
	for i < n && int(s.inIdx[i]) < idx {
		i++
	}
	if i < n && int(s.inIdx[i]) == idx {
		s.inCnt[i] += c
		return
	}
	if n == sketchInline {
		s.promote(idx)
		s.buckets[idx-int(s.lo)] += c
		return
	}
	copy(s.inIdx[i+1:n+1], s.inIdx[i:n])
	copy(s.inCnt[i+1:n+1], s.inCnt[i:n])
	s.inIdx[i], s.inCnt[i] = int16(idx), c
	s.nIn++
}

// promote moves the inline buckets into a dense array that also covers idx.
//
//lint:coldpath a sketch goes dense at most once, when its (sketchInline+1)-th distinct bucket arrives
func (s *Sketch) promote(idx int) {
	lo, hi := idx, idx+1
	for i := 0; i < int(s.nIn); i++ {
		lo = min(lo, int(s.inIdx[i]))
		hi = max(hi, int(s.inIdx[i])+1)
	}
	// Leave headroom above the occupied range: a denser stream's next
	// buckets land around the ones already seen.
	hi = min(max(hi, lo+4*sketchInline), sketchIndexBound+1)
	lo = max(min(lo, hi-4*sketchInline), -sketchIndexBound)
	s.buckets = make([]int64, hi-lo)
	s.lo = int32(lo)
	for i := 0; i < int(s.nIn); i++ {
		s.buckets[int(s.inIdx[i])-lo] = s.inCnt[i]
	}
	s.nIn = 0
}

// grow widens the dense array so bucket idx is addressable, at least
// doubling it toward the side idx lies on (clamped to the indexable range),
// so covering a wide dynamic range costs a logarithmic number of copies in
// either direction. This is warm-up-only work — once the array covers the
// data's dynamic range, Add never calls it again, which is what keeps the
// steady-state observation path allocation-free.
//
//lint:coldpath bucket-range growth runs only until the array covers the data's range; steady-state Add never reaches it
func (s *Sketch) grow(idx int) {
	oldLo, oldHi := int(s.lo), int(s.lo)+len(s.buckets)
	lo, hi := oldLo, oldHi
	if idx < oldLo {
		lo = max(min(idx, oldHi-2*len(s.buckets)), -sketchIndexBound)
	} else {
		hi = min(max(idx+1, oldLo+2*len(s.buckets)), sketchIndexBound+1)
	}
	grown := make([]int64, hi-lo)
	copy(grown[oldLo-lo:], s.buckets)
	s.buckets, s.lo = grown, int32(lo)
}

// bucketIter walks a sketch's occupied buckets in ascending index order in
// either representation. It is the one read path over the bucket counts:
// Quantile, Cells and Merge all fold through it. Empty dense slots are
// skipped, which changes no fold — they add nothing to a count and can never
// be the first bucket to reach a quantile's rank.
type bucketIter struct {
	s *Sketch
	i int
}

// next returns the next occupied bucket's index and count, or ok == false
// when the walk is done.
func (it *bucketIter) next() (idx int, c int64, ok bool) {
	s := it.s
	if s.buckets == nil {
		if it.i >= int(s.nIn) {
			return 0, 0, false
		}
		it.i++
		return int(s.inIdx[it.i-1]), s.inCnt[it.i-1], true
	}
	for it.i < len(s.buckets) {
		it.i++
		if c := s.buckets[it.i-1]; c != 0 {
			return int(s.lo) + it.i - 1, c, true
		}
	}
	return 0, 0, false
}

// Merge folds other into s: zero and bucket counts add cell by cell, the
// running sum accumulates as s.sum + other.sum, and the maximum is the larger
// of the two. Counts, cells, max — and therefore every quantile — are exact
// under any merge grouping; the float sum is a left-fold, so it is
// bit-reproducible for a fixed set of partials folded in a fixed order (the
// runner merges per-job sketches in job order on both its serial and parallel
// paths, which is why worker count never changes the merged sum). other is
// not modified.
func (s *Sketch) Merge(other *Sketch) {
	s.n += other.n
	s.zero += other.zero
	s.sum += other.sum
	if other.max > s.max {
		s.max = other.max
	}
	for it := (bucketIter{s: other}); ; {
		idx, c, ok := it.next()
		if !ok {
			return
		}
		s.addAt(idx, c)
	}
}

// Reset clears the sketch's counts, sum and maximum while keeping the bucket
// array (and its covered index range) allocated, so a tumbling-window
// observer can reuse one sketch per window without re-growing: after the
// first few windows warm the array, the steady-state observe path never
// allocates again.
func (s *Sketch) Reset() {
	s.zero = 0
	s.n = 0
	s.sum = 0
	s.max = 0
	s.nIn = 0
	clear(s.buckets)
}

// HeapBytes returns the bytes of bucket storage the sketch holds outside its
// own struct: the dense bucket array's capacity, zero while inline.
func (s *Sketch) HeapBytes() int { return 8 * cap(s.buckets) }

// N returns the number of observations.
func (s *Sketch) N() int64 { return s.n }

// Sum returns the exact running sum of all observations, accumulated in
// observation (or merge) order.
func (s *Sketch) Sum() float64 { return s.sum }

// Max returns the largest observation.
func (s *Sketch) Max() float64 { return s.max }

// ZeroCount returns the number of exactly-zero observations.
func (s *Sketch) ZeroCount() int64 { return s.zero }

// Quantile returns the upper bucket edge holding the q-quantile (0 < q <= 1):
// an upper estimate within 1% relative error of the true quantile (zero
// for the zero bucket). The estimate is a pure function of the bucket counts
// — identical counts give a bit-identical answer regardless of the order the
// observations arrived or the sketches were merged in.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.n)))
	acc := s.zero
	if acc >= target {
		return 0
	}
	for it := (bucketIter{s: s}); ; {
		idx, c, ok := it.next()
		if !ok {
			return s.max
		}
		acc += c
		if acc >= target {
			if idx >= sketchIndexBound {
				// Observations clamped into the top bucket may exceed its
				// nominal edge; the exact maximum is the honest bound.
				return s.max
			}
			edge := math.Pow(sketchGamma, float64(idx))
			if edge > s.max {
				// The top bucket's edge can overshoot the data; the true
				// quantile never exceeds the exact maximum.
				return s.max
			}
			return edge
		}
	}
}

// SketchCell is one occupied bucket for exporters: Upper is the bucket's
// upper edge (0 for the zero bucket) and Count the per-cell occupancy.
type SketchCell struct {
	Upper float64
	Count int64
}

// Cells returns the occupied buckets in ascending upper-edge order, zero
// bucket first (when occupied). Counts are per-cell, not cumulative.
func (s *Sketch) Cells() []SketchCell {
	out := make([]SketchCell, 0, int(s.nIn)+len(s.buckets)+1)
	if s.zero > 0 {
		out = append(out, SketchCell{Upper: 0, Count: s.zero})
	}
	for it := (bucketIter{s: s}); ; {
		idx, c, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, SketchCell{Upper: math.Pow(sketchGamma, float64(idx)), Count: c})
	}
}
