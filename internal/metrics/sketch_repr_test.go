package metrics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// refSketch is the plain dense reference for Sketch's compact storage: one
// count per index over the whole clamped range, no inline entries, no
// growth. Its folds are written out independently of bucketIter, so a
// representation bug in Sketch cannot hide behind a shared read path.
type refSketch struct {
	gamma, logGamma float64
	zero, n         int64
	sum, max        float64
	counts          [2*sketchIndexBound + 1]int64 // counts[i] is bucket i-sketchIndexBound
}

func newRefSketch(alpha float64) *refSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &refSketch{gamma: gamma, logGamma: math.Log(gamma)}
}

func (r *refSketch) add(v float64) {
	r.n++
	r.sum += v
	if v > r.max {
		r.max = v
	}
	if v == 0 {
		r.zero++
		return
	}
	idx := int(math.Ceil(math.Log(v) / r.logGamma))
	idx = min(max(idx, -sketchIndexBound), sketchIndexBound)
	r.counts[idx+sketchIndexBound]++
}

func (r *refSketch) quantile(q float64) float64 {
	if r.n == 0 || q <= 0 {
		return 0
	}
	target := int64(math.Ceil(min(q, 1) * float64(r.n)))
	acc := r.zero
	if acc >= target {
		return 0
	}
	for i, c := range r.counts {
		acc += c
		if acc >= target {
			idx := i - sketchIndexBound
			if idx >= sketchIndexBound {
				return r.max
			}
			return min(math.Pow(r.gamma, float64(idx)), r.max)
		}
	}
	return r.max
}

func (r *refSketch) cells() []SketchCell {
	out := []SketchCell{}
	if r.zero > 0 {
		out = append(out, SketchCell{Upper: 0, Count: r.zero})
	}
	for i, c := range r.counts {
		if c > 0 {
			out = append(out, SketchCell{Upper: math.Pow(r.gamma, float64(i-sketchIndexBound)), Count: c})
		}
	}
	return out
}

var reprQuantiles = []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 2}

// assertMatchesRef compares every read of s against the reference.
func assertMatchesRef(t *testing.T, what string, s *Sketch, r *refSketch) {
	t.Helper()
	if s.N() != r.n || s.Sum() != r.sum || s.Max() != r.max || s.ZeroCount() != r.zero {
		t.Fatalf("%s: n=%d sum=%v max=%v zero=%d, reference n=%d sum=%v max=%v zero=%d",
			what, s.N(), s.Sum(), s.Max(), s.ZeroCount(), r.n, r.sum, r.max, r.zero)
	}
	if got, want := s.Cells(), r.cells(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cells %v, reference %v", what, got, want)
	}
	for _, q := range reprQuantiles {
		if got, want := s.Quantile(q), r.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q%v = %v, reference %v", what, q, got, want)
		}
	}
}

// reprStream draws n observations spanning the representation's edge
// cases: exact zeros, values past both index clamps, a narrow cluster that
// stays within a few buckets, and a wide spread of distinct buckets. distinct
// caps the number of distinct non-zero values (0 = no cap), so a stream can
// be held to the inline capacity.
func reprStream(r *rng.Source, n, distinct int) []float64 {
	pool := make([]float64, 0, n)
	draw := func() float64 {
		switch r.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Pow(10, r.Uniform(18, 300)) // past the upper clamp
		case 2:
			return math.Pow(10, r.Uniform(-300, -18)) // past the lower clamp
		case 3:
			return 5 + r.Float64() // a few adjacent buckets
		default:
			return math.Pow(10, r.Uniform(-3, 6))
		}
	}
	vs := make([]float64, n)
	for i := range vs {
		if distinct > 0 && len(pool) == distinct {
			vs[i] = pool[r.Intn(len(pool))]
			continue
		}
		v := draw()
		if v != 0 {
			pool = append(pool, v)
		}
		vs[i] = v
	}
	return vs
}

// TestSketchReprMatchesDenseReference: whatever mix of inline and dense
// storage a stream drives a sketch through — including promotion, growth
// in both directions and clamped edge buckets — every read equals the dense
// reference's, before and after a Reset and reuse.
func TestSketchReprMatchesDenseReference(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 300; trial++ {
		n := r.IntRange(1, 200)
		distinct := 0
		if trial%3 == 0 {
			distinct = r.IntRange(1, sketchInline)
		}
		s := NewSketch()
		ref := newRefSketch(0.01)
		for i, v := range reprStream(r, n, distinct) {
			s.Add(v)
			ref.add(v)
			if i%17 == 0 {
				assertMatchesRef(t, "mid-stream", s, ref)
			}
		}
		assertMatchesRef(t, "full stream", s, ref)
		if distinct > 0 && s.buckets != nil {
			t.Fatalf("trial %d: %d distinct values went dense", trial, distinct)
		}

		s.Reset()
		ref = newRefSketch(0.01)
		assertMatchesRef(t, "after reset", s, ref)
		for _, v := range reprStream(r, r.IntRange(1, 100), 0) {
			s.Add(v)
			ref.add(v)
		}
		assertMatchesRef(t, "reused", s, ref)
	}
}

// TestSketchInlineAddAllocFree: observing into at most sketchInline
// distinct buckets (plus the zero bucket) never allocates.
func TestSketchInlineAddAllocFree(t *testing.T) {
	vs := []float64{0, 1, 2.5, 40, 1e6}
	if len(vs) != sketchInline+1 {
		t.Fatalf("stream has %d values, want one per inline slot plus zero", len(vs))
	}
	s := NewSketch()
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for _, v := range vs {
			s.Add(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("inline Add allocated %v times per run", allocs)
	}
	if s.buckets != nil {
		t.Fatal("sketch went dense within the inline capacity")
	}
}
