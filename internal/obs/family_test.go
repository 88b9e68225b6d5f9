package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/txn"
)

// familyObs is one windowed observation: a cell key and its three measures.
type familyObs struct {
	win         int
	class, mode string
	v           [numWindowKinds]float64
}

// familyLabels mixes the in-repo label values with the hostile ones of
// TestWindowMetricEscapesLabels.
var familyLabels = []string{"light", "medium", "heavy", "edf", "hdf", `he"vy}`, "ed\nf", "bad\"}\nclass", `back\slash`}

// randomFamilyObs draws n observations over random cells: windows past the
// four-digit padding, repeated keys, zeros and a wide value range.
func randomFamilyObs(r *rng.Source, n int) []familyObs {
	out := make([]familyObs, n)
	for i := range out {
		o := &out[i]
		o.win = r.Intn(40)
		if r.Bool(0.1) {
			o.win = 9990 + r.Intn(20)
		}
		o.class = familyLabels[r.Intn(len(familyLabels))]
		o.mode = familyLabels[r.Intn(len(familyLabels))]
		for k := range o.v {
			if !r.Bool(0.2) {
				o.v[k] = r.Exp(0.05)
			}
		}
	}
	return out
}

// familyRegistry feeds obs through the windowed families, next to a few
// plain metrics that sort around the cells.
func familyRegistry(obs []familyObs) *Registry {
	reg := plainNeighbors()
	f := reg.windowFamily()
	for _, o := range obs {
		c, taken := f.cell(o.win, o.class, o.mode)
		if c == nil {
			panic(taken)
		}
		c.observe(o.v[0], o.v[1], o.v[2])
	}
	return reg
}

// perNameRegistry is familyRegistry by the old path: every cell measure a
// plain sketch registered under its WindowMetric name.
func perNameRegistry(obs []familyObs) *Registry {
	reg := plainNeighbors()
	for _, o := range obs {
		for k := range o.v {
			reg.Sketch(WindowMetric(windowKinds[k], o.win, o.class, o.mode), windowHelp[k]).Observe(o.v[k])
		}
	}
	return reg
}

// plainNeighbors registers metrics whose names sort before, between and
// after the windowed families.
func plainNeighbors() *Registry {
	reg := NewRegistry()
	reg.Sketch(MetricSpanResponse, "per-span response time quantile sketch").Observe(3)
	reg.Sketch("asets_window_responsez", "sorts between families").Observe(1)
	reg.Sketch("asets_window_tardiness_total", "sorts before its family").Observe(2)
	reg.Counter("asets_window_tardiness_count", "a counter beside the family").Add(4)
	reg.Gauge("asets_zzz", "sorts last").Set(1)
	return reg
}

// exposition renders reg's /metrics page.
func exposition(t *testing.T, reg *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWindowFamilyMatchesPerNameRegistration: snapshots and /metrics pages
// of family cells equal those of registering every cell measure by its
// WindowMetric name, hostile labels included.
func TestWindowFamilyMatchesPerNameRegistration(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		obs := randomFamilyObs(r, r.IntRange(1, 300))
		fam, per := familyRegistry(obs), perNameRegistry(obs)
		if got, want := fam.Snapshot(), per.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: family snapshot differs from per-name registration", trial)
		}
		if got, want := exposition(t, fam), exposition(t, per); got != want {
			t.Fatalf("trial %d: family exposition differs:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// TestWindowFamilyMergeMatchesPerName: merging family registries — into an
// empty registry and into a populated one, in job order — exports exactly
// what merging the per-name registries does.
func TestWindowFamilyMergeMatchesPerName(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 5; trial++ {
		jobs := [][]familyObs{randomFamilyObs(r, 150), randomFamilyObs(r, 150), randomFamilyObs(r, 5)}
		base := randomFamilyObs(r, 100)
		for _, populated := range []bool{false, true} {
			famDst, perDst := NewRegistry(), NewRegistry()
			if populated {
				famDst, perDst = familyRegistry(base), perNameRegistry(base)
			}
			for _, job := range jobs {
				if err := famDst.Merge(familyRegistry(job)); err != nil {
					t.Fatal(err)
				}
				if err := perDst.Merge(perNameRegistry(job)); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := exposition(t, famDst), exposition(t, perDst); got != want {
				t.Fatalf("trial %d populated=%v: merged family exposition differs from per-name merge", trial, populated)
			}
		}
	}
}

// expectPanic runs f and fails unless it panics with a message containing
// want.
func expectPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), want) {
			t.Errorf("%s: panic %v, want one containing %q", what, p, want)
		}
	}()
	f()
}

// TestWindowFamilyNameConflicts: a counter or plain sketch registered under
// a name a cell renders to conflicts, whichever is registered first, and in
// merges; plain metrics under other names beside the family do not.
func TestWindowFamilyNameConflicts(t *testing.T) {
	name := WindowMetric("response", 3, "heavy", "edf")
	const taken = "already registered with a different type"

	reg := NewRegistry()
	f := reg.windowFamily()
	if c, _ := f.cell(3, "heavy", "edf"); c == nil {
		t.Fatal("fresh cell refused")
	}
	expectPanic(t, "counter after cell", taken, func() { reg.Counter(name, "") })
	expectPanic(t, "sketch after cell", taken, func() { reg.Sketch(name, "") })
	expectPanic(t, "gauge after cell", taken, func() { reg.Gauge(name, "") })
	reg.Counter(WindowMetric("response", 4, "heavy", "edf"), "a free name under the family base")

	for _, register := range []func(*Registry){
		func(r *Registry) { r.Counter(name, "") },
		func(r *Registry) { r.Sketch(name, "") },
	} {
		// Registered before the family exists, and before the family
		// creates the cell.
		for _, familyFirst := range []bool{false, true} {
			reg := NewRegistry()
			if familyFirst {
				reg.windowFamily()
			}
			register(reg)
			if c, got := reg.windowFamily().cell(3, "heavy", "edf"); c != nil || got != name {
				t.Errorf("familyFirst=%v: cell over a registered name returned %v, %q", familyFirst, c, got)
			}
		}
	}

	// The span builder panics as the old per-cell registration did.
	reg = NewRegistry()
	reg.Counter(WindowMetric("tardiness", 0, "heavy", "edf"), "")
	b := NewSpanBuilder(spanTestSet(t), SpanOptions{Metrics: reg, Window: 5})
	expectPanic(t, "span builder over a counter", taken, func() { windowEvents(b, 0, 0, 4) })

	// Merges report the conflict in either direction.
	src := NewRegistry()
	src.windowFamily().cell(3, "heavy", "edf")
	dst := NewRegistry()
	dst.Counter(name, "")
	if err := dst.Merge(src); err == nil || !strings.Contains(err.Error(), "is a sketch in the source") {
		t.Errorf("cell over destination counter: %v", err)
	}
	src, dst = NewRegistry(), NewRegistry()
	src.Counter(name, "")
	dst.windowFamily().cell(3, "heavy", "edf")
	if err := dst.Merge(src); err == nil || !strings.Contains(err.Error(), "is a counter in the source") {
		t.Errorf("counter over destination cell: %v", err)
	}
}

// windowStreamSet builds n independent transactions with weights cycling
// through the three classes.
func windowStreamSet(t testing.TB, n int) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, n)
	for i := range txns {
		txns[i] = &txn.Transaction{ID: txn.ID(i), Arrival: float64(i), Deadline: float64(i) + 3,
			Length: 1, Weight: float64(1 + i%10), Remaining: 1}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// feedWindowStream replays arrival, dispatch and completion for every
// transaction of set, one time unit apart with some completing late.
func feedWindowStream(b *SpanBuilder, n int) {
	for i := 0; i < n; i++ {
		at := float64(i)
		b.Emit(Event{Time: at, Kind: KindArrival, Txn: txn.ID(i), Workflow: -1, Deadline: at + 3})
		b.Emit(Event{Time: at, Kind: KindDispatch, Txn: txn.ID(i), Workflow: -1})
		b.Emit(Event{Time: at + 1 + float64(i%7), Kind: KindCompletion, Txn: txn.ID(i), Workflow: -1,
			Tardiness: float64(max(i%7-2, 0))})
	}
}

// TestSpanBuilderWindowedAllocs: with a registry and windows of about two
// completions per (window, class, mode) cell — the live dashboard's regime —
// a 10k-completion stream stays within one allocation per transaction,
// builder construction included.
func TestSpanBuilderWindowedAllocs(t *testing.T) {
	const n = 10_000
	set := windowStreamSet(t, n)
	var b *SpanBuilder
	allocs := testing.AllocsPerRun(1, func() {
		b = NewSpanBuilder(set, SpanOptions{Metrics: NewRegistry(), Window: 6, Keep: 1024})
		feedWindowStream(b, n)
	})
	perTxn := allocs / n
	t.Logf("%.3f allocs/txn", perTxn)
	if perTxn > 1 {
		t.Fatalf("windowed span builder: %.2f allocs/txn, budget 1", perTxn)
	}
	if b.Total() != n {
		t.Fatalf("closed %d spans, want %d", b.Total(), n)
	}
}

// TestSpanRetainedBytesCountsWindowCells: the retained-bytes estimate grows
// with the number of window cells, by at least the cells' own size.
func TestSpanRetainedBytesCountsWindowCells(t *testing.T) {
	const n = 3000
	set := windowStreamSet(t, n)
	plain := NewSpanBuilder(set, SpanOptions{Metrics: NewRegistry(), Keep: 64})
	feedWindowStream(plain, n)
	prev := plain.RetainedBytes()
	for _, window := range []float64{1000, 100, 10, 1} {
		b := NewSpanBuilder(set, SpanOptions{Metrics: NewRegistry(), Window: window, Keep: 64})
		feedWindowStream(b, n)
		cells := len(b.window.index)
		got := b.RetainedBytes()
		if min := plain.RetainedBytes() + cells*int(unsafe.Sizeof(windowCell{})); got < min {
			t.Errorf("window %v: %d cells retain %d bytes, want at least %d", window, cells, got, min)
		}
		if got <= prev {
			t.Errorf("window %v: %d cells retain %d bytes, no more than the previous %d", window, cells, got, prev)
		}
		prev = got
	}
}

// TestHammerWindowFamilyScrape: while one goroutine feeds completions into
// new window cells, others snapshot and render the registry, read the
// retained-bytes estimate and register plain metrics under a family base —
// the live dashboard's scrape pattern. Run under -race.
func TestHammerWindowFamilyScrape(t *testing.T) {
	const n = 3000
	set := windowStreamSet(t, n)
	reg := NewRegistry()
	b := NewSpanBuilder(set, SpanOptions{Metrics: reg, Window: 3, Keep: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		feedWindowStream(b, n)
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := WritePrometheus(&buf, reg); err != nil {
					t.Error(err)
					return
				}
				_ = b.RetainedBytes()
				reg.Counter(WindowMetric("tardiness", 1_000_000+i, "light", fmt.Sprint("plain", g)), "")
			}
		}(g)
	}
	<-done
	wg.Wait()
	var count int64
	for _, s := range reg.Snapshot().Sketches {
		if strings.HasPrefix(s.Name, "asets_window_response{") {
			count += s.Count
		}
	}
	if count != n {
		t.Fatalf("window cells hold %d responses, want %d", count, n)
	}
}
