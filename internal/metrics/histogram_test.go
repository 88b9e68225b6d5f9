package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0, 0, 1.5, 3, 10, 100} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	if math.Abs(h.Mean()-114.5/6) > 1e-12 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %v", h.Max())
	}
	if math.Abs(h.ZeroFraction()-2.0/6) > 1e-12 {
		t.Fatalf("zero fraction = %v", h.ZeroFraction())
	}
}

// TestHistogramSumAndBuckets covers the exporter surface: Sum accumulates
// observations in insertion order (so exporters can compare it bitwise
// against an equally-ordered external sum) and Buckets returns the zero
// bucket followed by the geometric edges.
func TestHistogramSumAndBuckets(t *testing.T) {
	h := NewHistogram()
	vals := []float64{0, 0.5, 1.5, 3, 10}
	var sum float64
	for _, v := range vals {
		h.Add(v)
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
	b := h.Buckets()
	if len(b) == 0 || b[0].Upper != 0 || b[0].Count != 1 {
		t.Fatalf("zero bucket = %+v", b)
	}
	total := 0
	for i, bk := range b {
		if i > 0 && bk.Upper != math.Pow(2, float64(i)) {
			t.Fatalf("bucket %d upper = %v", i, bk.Upper)
		}
		total += bk.Count
	}
	if total != len(vals) {
		t.Fatalf("bucket counts sum to %d, want %d", total, len(vals))
	}
	if NewHistogram().Sum() != 0 {
		t.Fatal("empty histogram Sum non-zero")
	}
}

func TestHistogramSubUnitValues(t *testing.T) {
	h := NewHistogram()
	h.Add(0.001)
	h.Add(0.5)
	if h.N() != 2 || h.ZeroFraction() != 0 {
		t.Fatalf("sub-unit handling: %+v", h)
	}
}

func TestHistogramPanics(t *testing.T) {
	h := NewHistogram()
	defer func() {
		if recover() == nil {
			t.Fatal("negative observation accepted")
		}
	}()
	h.Add(-1)
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Add(0)
	h.Add(5)
	out := h.String()
	if !strings.Contains(out, "n=2") || !strings.Contains(out, "=0") {
		t.Fatalf("render: %q", out)
	}
}

// TestHistogramPow2Buckets pins the exponent-extraction index to the
// documented layout: bucket i covers [2^i, 2^(i+1)), exact at boundaries,
// with sub-unit values absorbed by the first bucket.
func TestHistogramPow2Buckets(t *testing.T) {
	h := NewHistogram()
	cases := []struct {
		v    float64
		want int // geometric bucket index (excluding the zero bucket)
	}{
		{1, 0}, {1.5, 0}, {2, 1}, {3.999, 1}, {4, 2}, {8, 3}, {1024, 10},
		{0.5, 0}, {0.001, 0}, // sub-unit clamps to the first bucket
	}
	for _, c := range cases {
		h = NewHistogram()
		h.Add(c.v)
		buckets := h.Buckets()[1:] // strip the zero bucket
		if len(buckets) != c.want+1 || buckets[c.want].Count != 1 {
			t.Errorf("Add(%v): bucket layout %+v, want single count in bucket %d", c.v, buckets, c.want)
		}
		if want := math.Pow(2, float64(c.want+1)); buckets[c.want].Upper != want {
			t.Errorf("Add(%v): bucket upper %v, want %v", c.v, buckets[c.want].Upper, want)
		}
	}
}
