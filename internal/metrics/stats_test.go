package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("zero-value stream misbehaves")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic dataset is 4; the unbiased sample
	// variance is 4 * 8/7.
	if got, want := s.Variance(), 4.0*8/7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestStreamSingleObservation(t *testing.T) {
	var s Stream
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Fatalf("singleton stream: %+v", s)
	}
}

func TestStreamCI95ShrinksWithN(t *testing.T) {
	src := rng.New(17)
	var small, large Stream
	for i := 0; i < 10; i++ {
		small.Add(src.Float64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(src.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestStreamString(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Add(2)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestQuickStreamMeanBounds: the mean of any sample lies within [min, max].
func TestQuickStreamMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Stream
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		if s.N() > 0 {
			ok = s.Mean() >= lo-1e-9 && s.Mean() <= hi+1e-9 && s.Variance() >= 0
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
