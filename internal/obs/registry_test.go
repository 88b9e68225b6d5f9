package obs

import (
	"reflect"
	"sync"
	"testing"
)

// Add adds n. No program adds more than one at a time; the tests build
// counter fixtures with it.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge after reset = %v", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "")
	b := r.Counter("c", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	h1 := r.Histogram("h", "")
	h2 := r.Histogram("h", "")
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
}

func TestRegistryNameTypeClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter's name did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func(order []string) Snapshot {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n, "help "+n).Add(uint64(len(n)))
		}
		r.Gauge("g_now", "").Set(3.5)
		h := r.Histogram("h_tard", "")
		h.Observe(0)
		h.Observe(3)
		return r.Snapshot()
	}
	s1 := build([]string{"b_total", "a_total", "c_total"})
	s2 := build([]string{"c_total", "b_total", "a_total"})
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ by registration order:\n%+v\n%+v", s1, s2)
	}
	names := make([]string, 0, len(s1.Counters))
	for _, c := range s1.Counters {
		names = append(names, c.Name)
	}
	if !reflect.DeepEqual(names, []string{"a_total", "b_total", "c_total"}) {
		t.Fatalf("counters not sorted: %v", names)
	}
	if len(s1.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s1.Histograms)
	}
	hv := s1.Histograms[0]
	if hv.Count != 2 || hv.Sum != 3 || hv.Max != 3 {
		t.Fatalf("histogram snapshot = %+v", hv)
	}
	total := 0
	for _, b := range hv.Buckets {
		total += b.Count
	}
	if total != hv.Count {
		t.Fatalf("bucket counts %d != count %d", total, hv.Count)
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("now", "")
	h := r.Histogram("obs", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 7))
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if got := r.Snapshot().Histograms[0].Count; got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
}

// TestHistogramPair: a pair registered together shares one lock and records
// exactly what two separate Observe calls record; a pair over histograms
// registered apart keeps their own locks and records the same.
func TestHistogramPair(t *testing.T) {
	together, apart, single := NewRegistry(), NewRegistry(), NewRegistry()
	p := together.HistogramPair("a", "first", "b", "second")
	if p.a.mu != p.b.mu || p != together.HistogramPair("a", "first", "b", "second") {
		t.Fatal("a pair registered together must share one lock and be get-or-create")
	}
	apart.Histogram("b", "second")
	q := apart.HistogramPair("a", "first", "b", "second")
	if q.a.mu == q.b.mu {
		t.Fatal("a histogram registered alone must keep its own lock")
	}
	ha, hb := single.Histogram("a", "first"), single.Histogram("b", "second")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				x, y := float64(i%7), float64(i) // integers: the sums are exact in any order
				p.Observe(x, y)
				q.Observe(x, y)
				ha.Observe(x)
				hb.Observe(y)
				_ = together.Snapshot()
			}
		}()
	}
	wg.Wait()
	want := single.Snapshot().Histograms
	if got := together.Snapshot().Histograms; !reflect.DeepEqual(got, want) {
		t.Fatalf("paired histograms %+v, want %+v", got, want)
	}
	if got := apart.Snapshot().Histograms; !reflect.DeepEqual(got, want) {
		t.Fatalf("histograms paired apart %+v, want %+v", got, want)
	}
}
