package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestMergeCountersAdd(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()
	dst.Counter("done", "finished").Add(3)
	src.Counter("done", "finished").Add(4)
	src.Counter("only_src", "new").Add(7)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	snap := counterValues(dst)
	if snap["done"] != 7 {
		t.Fatalf("done = %d, want 7", snap["done"])
	}
	if snap["only_src"] != 7 {
		t.Fatalf("only_src = %d, want 7 (created from source)", snap["only_src"])
	}
}

func TestMergeGaugesTakeSource(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()
	dst.Gauge("clock", "sim time").Set(10)
	src.Gauge("clock", "sim time").Set(25)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if v := dst.Gauge("clock", "sim time").Value(); v != 25 {
		t.Fatalf("gauge = %v, want the source's 25 (last merged run wins, like a serial run)", v)
	}
}

func TestMergeHistogramsBucketwise(t *testing.T) {
	// The merged histogram must equal a single histogram fed both streams in
	// merge order — the property the parallel engine relies on.
	dst, src := NewRegistry(), NewRegistry()
	want := NewRegistry()
	wh := want.Histogram("tard", "tardiness")
	a := dst.Histogram("tard", "tardiness")
	for _, v := range []float64{0, 1.5, 3, 8} {
		a.Observe(v)
		wh.Observe(v)
	}
	b := src.Histogram("tard", "tardiness")
	for _, v := range []float64{0.5, 100, 0} {
		b.Observe(v)
		wh.Observe(v)
	}
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	got, wantSnap := dst.Snapshot(), want.Snapshot()
	if !reflect.DeepEqual(got.Histograms, wantSnap.Histograms) {
		t.Fatalf("merged histogram differs from serially-fed histogram:\ngot  %+v\nwant %+v",
			got.Histograms, wantSnap.Histograms)
	}
}

func TestMergeOrderDeterminism(t *testing.T) {
	// Merging the same registries in the same order twice gives identical
	// snapshots; this is what makes job-order merging reproducible.
	build := func() *Registry {
		dst := NewRegistry()
		for i := 0; i < 3; i++ {
			src := NewRegistry()
			src.Counter("c", "").Add(uint64(i + 1))
			src.Gauge("g", "").Set(float64(i))
			src.Histogram("h", "").Observe(float64(i) * 1.25)
			if err := dst.Merge(src); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	if !reflect.DeepEqual(build().Snapshot(), build().Snapshot()) {
		t.Fatal("repeated in-order merges are not deterministic")
	}
}

func TestMergeErrors(t *testing.T) {
	t.Run("self merge", func(t *testing.T) {
		r := NewRegistry()
		if err := r.Merge(r); err == nil || !strings.Contains(err.Error(), "itself") {
			t.Fatalf("got %v, want self-merge error", err)
		}
	})
	t.Run("nil source is a no-op", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("c", "").Inc()
		if err := r.Merge(nil); err != nil {
			t.Fatal(err)
		}
		if counterValues(r)["c"] != 1 {
			t.Fatal("nil merge changed the destination")
		}
	})
	t.Run("type conflict", func(t *testing.T) {
		dst, src := NewRegistry(), NewRegistry()
		dst.Gauge("x", "").Set(1)
		src.Counter("x", "").Inc()
		if err := dst.Merge(src); err == nil || !strings.Contains(err.Error(), "counter in the source") {
			t.Fatalf("got %v, want type-conflict error", err)
		}
	})
}

func counterValues(r *Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range r.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	return out
}
