package metrics

import (
	"reflect"
	"testing"
)

// TestHistogramMergeEqualsSerialFeed: h.Merge(other) must leave h exactly as
// if it had observed other's stream after its own — counts, zero bucket,
// sum, max and every geometric bucket.
func TestHistogramMergeEqualsSerialFeed(t *testing.T) {
	a, b, want := NewHistogram(), NewHistogram(), NewHistogram()
	for _, v := range []float64{0, 0.5, 1, 2.5, 7, 300} {
		a.Add(v)
		want.Add(v)
	}
	for _, v := range []float64{0, 4, 9000, 0.1} {
		b.Add(v)
		want.Add(v)
	}
	a.Merge(b)
	if a.N() != want.N() || a.Sum() != want.Sum() || a.Max() != want.Max() {
		t.Fatalf("merged N/Sum/Max = %d/%v/%v, want %d/%v/%v",
			a.N(), a.Sum(), a.Max(), want.N(), want.Sum(), want.Max())
	}
	if !reflect.DeepEqual(a.Buckets(), want.Buckets()) {
		t.Fatalf("merged buckets differ:\ngot  %+v\nwant %+v", a.Buckets(), want.Buckets())
	}
}

// TestHistogramMergeGrowsBuckets: merging a histogram with more buckets than
// the destination extends the destination.
func TestHistogramMergeGrowsBuckets(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1)
	b.Add(1 << 20)
	a.Merge(b)
	if a.N() != 2 || a.Max() != 1<<20 {
		t.Fatalf("after growth merge: N=%d Max=%v", a.N(), a.Max())
	}
}

// TestHistogramMergeLeavesSourceUntouched: Merge reads but never writes the
// other histogram.
func TestHistogramMergeLeavesSourceUntouched(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(3)
	b.Add(5)
	before := b.Buckets()
	n, sum := b.N(), b.Sum()
	a.Merge(b)
	if b.N() != n || b.Sum() != sum || !reflect.DeepEqual(b.Buckets(), before) {
		t.Fatal("Merge mutated its argument")
	}
}
