package metrics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestSketchBasics(t *testing.T) {
	s := NewSketch()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	s.Add(0)
	s.Add(0)
	s.Add(10)
	if s.N() != 3 || s.ZeroCount() != 2 || s.Max() != 10 || s.Sum() != 10 {
		t.Fatalf("n=%d zero=%d max=%v sum=%v", s.N(), s.ZeroCount(), s.Max(), s.Sum())
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("p50 = %v, want 0 (zero bucket)", got)
	}
	p99 := s.Quantile(0.99)
	if math.Abs(p99-10) > 10*0.011 {
		t.Fatalf("p99 = %v, want ~10 within 1%%", p99)
	}
}

func TestSketchRelativeAccuracy(t *testing.T) {
	s := NewSketch()
	// 1..10000 uniformly: the true q-quantile of the multiset is known.
	for i := 1; i <= 10000; i++ {
		s.Add(float64(i))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		got := s.Quantile(q)
		want := math.Ceil(q * 10000)
		if rel := math.Abs(got-want) / want; rel > 2*sketchAlpha {
			t.Errorf("q=%v: got %v want %v (rel err %v)", q, got, want, rel)
		}
		if got > s.Max() {
			t.Errorf("q=%v: estimate %v exceeds max %v", q, got, s.Max())
		}
	}
}

func TestSketchOrderIndependentCounts(t *testing.T) {
	r := rng.New(7)
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	fwd, rev := NewSketch(), NewSketch()
	for _, v := range vals {
		fwd.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Add(vals[i])
	}
	if !reflect.DeepEqual(fwd.Cells(), rev.Cells()) {
		t.Fatal("bucket counts depend on insertion order")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if fwd.Quantile(q) != rev.Quantile(q) {
			t.Fatalf("q=%v differs across insertion orders", q)
		}
	}
}

// TestSketchMergeAssociativity: counts, cells, max and quantiles must be
// bit-identical under any merge grouping — the property the parallel runner's
// job-order aggregation rests on. (The running Sum is a float left-fold and
// is only guaranteed for a fixed merge order, like Histogram.)
func TestSketchMergeAssociativity(t *testing.T) {
	build := func(seed uint64, n int) *Sketch {
		s := NewSketch()
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			v := r.Float64() * 50
			if v < 5 {
				v = 0
			}
			s.Add(v)
		}
		return s
	}
	mk := func() (a, b, c *Sketch) { return build(1, 300), build(2, 200), build(3, 100) }

	// (a ⊕ b) ⊕ c
	a1, b1, c1 := mk()
	a1.Merge(b1)
	a1.Merge(c1)
	// a ⊕ (b ⊕ c)
	a2, b2, c2 := mk()
	b2.Merge(c2)
	a2.Merge(b2)

	if a1.N() != a2.N() || a1.ZeroCount() != a2.ZeroCount() || a1.Max() != a2.Max() {
		t.Fatalf("aggregates differ: n %d/%d zero %d/%d max %v/%v",
			a1.N(), a2.N(), a1.ZeroCount(), a2.ZeroCount(), a1.Max(), a2.Max())
	}
	if !reflect.DeepEqual(a1.Cells(), a2.Cells()) {
		t.Fatal("cells differ across merge groupings")
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if a1.Quantile(q) != a2.Quantile(q) {
			t.Fatalf("q=%v differs across merge groupings", q)
		}
	}
}

// TestSketchMergeMatchesDirect: folding per-part sketches in part order must
// reproduce a single-sketch pass exactly for counts, cells and max, and the
// merge fold itself must be a pure function of the partials and fold order —
// the structure the runner relies on (serial and parallel paths both merge
// per-job partials in job order, so they agree bit for bit).
func TestSketchMergeMatchesDirect(t *testing.T) {
	r := rng.New(42)
	parts := [][]float64{make([]float64, 100), make([]float64, 150), make([]float64, 50)}
	direct := NewSketch()
	partials := make([]*Sketch, len(parts))
	for i := range parts {
		partials[i] = NewSketch()
		for j := range parts[i] {
			parts[i][j] = r.Float64() * 200
			partials[i].Add(parts[i][j])
			direct.Add(parts[i][j])
		}
	}
	fold := func() *Sketch {
		m := NewSketch()
		for _, p := range partials {
			m.Merge(p)
		}
		return m
	}
	merged, again := fold(), fold()
	if merged.N() != direct.N() || merged.Max() != direct.Max() {
		t.Fatalf("merged n=%d max=%v, direct n=%d max=%v",
			merged.N(), merged.Max(), direct.N(), direct.Max())
	}
	if !reflect.DeepEqual(merged.Cells(), direct.Cells()) {
		t.Fatal("merged cells differ from direct cells")
	}
	// The merge-order sum is a different float fold than the single-pass sum
	// (addition is not associative) but must agree to rounding and reproduce
	// bit-identically across identical folds.
	if rel := math.Abs(merged.Sum()-direct.Sum()) / direct.Sum(); rel > 1e-12 {
		t.Fatalf("merged sum %v vs direct %v (rel %v)", merged.Sum(), direct.Sum(), rel)
	}
	if merged.Sum() != again.Sum() || merged.N() != again.N() {
		t.Fatal("identical folds disagree")
	}
	if !reflect.DeepEqual(merged.Cells(), again.Cells()) {
		t.Fatal("identical folds produce different cells")
	}
}

func TestSketchPanics(t *testing.T) {
	for _, v := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", v)
				}
			}()
			NewSketch().Add(v)
		}()
	}
}

func TestSketchExtremeValuesClamp(t *testing.T) {
	s := NewSketch()
	s.Add(1e300)
	s.Add(1e-300)
	if s.N() != 2 || s.Max() != 1e300 {
		t.Fatalf("n=%d max=%v", s.N(), s.Max())
	}
	// The top quantile must report the exact maximum, not an overshooting
	// clamped bucket edge.
	if got := s.Quantile(1); got != 1e300 {
		t.Fatalf("p100 = %v, want exact max", got)
	}
}
