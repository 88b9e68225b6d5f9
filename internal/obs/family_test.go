package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/metrics"
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
	for _, o := range obs {
		observeCell(reg, o.win, o.class, o.mode, o.v)
	}
	return reg
}

// observeCell files one observation into the cell (win, class, mode) of
// reg's windowed families, leaving the run totals alone.
func observeCell(reg *Registry, win int, class, mode string, v [numWindowKinds]float64) {
	f := reg.spanFamily()
	var idx [numWindowKinds]int16
	for k := range v {
		idx[k] = int16(metrics.BucketIndex(v[k]))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.win.add(int32(win), f.win.label(class, mode), &v, &idx)
}

// plainSketch registers a plain sketch under name as Registry.Sketch does,
// but past the reserved-base check: the per-name reference that family
// cells must render exactly like.
func plainSketch(reg *Registry, name, help string) *Sketch {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if s, ok := reg.sketches[name]; ok {
		return s
	}
	reg.names = append(reg.names, name)
	reg.help[name] = help
	s := &Sketch{}
	s.mu = &s.own
	reg.sketches[name] = s
	return s
}

// perNameRegistry is familyRegistry by plain sketches: every cell measure
// registered under its WindowMetric name.
func perNameRegistry(obs []familyObs) *Registry {
	reg := plainNeighbors()
	for _, o := range obs {
		for k := range o.v {
			plainSketch(reg, WindowMetric(windowKinds[k], o.win, o.class, o.mode), windowHelp[k]).Observe(o.v[k])
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

// TestWindowFamilyNameConflicts: a counter, gauge, histogram or plain
// sketch registered under any of the three window-family bases panics, bare
// or labeled, before the span family exists and after it holds a cell;
// plain metrics under other names beside the family do not.
func TestWindowFamilyNameConflicts(t *testing.T) {
	const reserved = "reserved window-family base"
	registers := []struct {
		kind     string
		register func(*Registry, string)
	}{
		{"counter", func(r *Registry, name string) { r.Counter(name, "") }},
		{"gauge", func(r *Registry, name string) { r.Gauge(name, "") }},
		{"histogram", func(r *Registry, name string) { r.Histogram(name, "") }},
		{"sketch", func(r *Registry, name string) { r.Sketch(name, "") }},
	}
	one := [numWindowKinds]float64{1, 2, 3}
	for _, familyFirst := range []bool{false, true} {
		for k, kind := range windowKinds {
			for _, name := range []string{windowBase(k), WindowMetric(kind, 3, "heavy", "edf"), WindowMetric(kind, 4, "light", "hdf")} {
				for _, reg := range registers {
					r := NewRegistry()
					if familyFirst {
						observeCell(r, 3, "heavy", "edf", one)
					}
					what := fmt.Sprintf("%s %s (family first: %v)", reg.kind, name, familyFirst)
					expectPanic(t, what, reserved, func() { reg.register(r, name) })
					if got := len(r.Snapshot().Counters) + len(r.Snapshot().Gauges) + len(r.Snapshot().Histograms); got != 0 {
						t.Errorf("%s: a refused registration left %d metrics behind", what, got)
					}
				}
			}
		}
	}

	// Names beside the bases stay free, with the family in use.
	reg := plainNeighbors()
	observeCell(reg, 3, "heavy", "edf", one)
	reg.Histogram("asets_window_slowdown_seconds", "a histogram beside the family")
	page := exposition(t, reg)
	for _, want := range []string{"asets_window_tardiness_count 4", `asets_window_response{window="0003",class="heavy",mode="edf",quantile="0.5"}`} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition lacks %q:\n%s", want, page)
		}
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
		feedWindowTxn(b, i)
	}
}

// feedWindowTxn replays transaction i of feedWindowStream.
func feedWindowTxn(b *SpanBuilder, i int) {
	at := float64(i)
	b.Emit(Event{Time: at, Kind: KindArrival, Txn: txn.ID(i), Workflow: -1, Deadline: at + 3})
	b.Emit(Event{Time: at, Kind: KindDispatch, Txn: txn.ID(i), Workflow: -1})
	b.Emit(Event{Time: at + 1 + float64(i%7), Kind: KindCompletion, Txn: txn.ID(i), Workflow: -1,
		Tardiness: float64(max(i%7-2, 0))})
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
// with every new window cell. A windowed builder and a plain one are fed the
// same stream in lockstep; after every transaction the windowed estimate
// exceeds the plain one by at least the cells' own size, and the excess
// never shrinks.
func TestSpanRetainedBytesCountsWindowCells(t *testing.T) {
	const n = 3000
	set := windowStreamSet(t, n)
	for _, window := range []float64{1000, 100, 10, 1} {
		plain := NewSpanBuilder(set, SpanOptions{Metrics: NewRegistry(), Keep: 64})
		b := NewSpanBuilder(set, SpanOptions{Metrics: NewRegistry(), Window: window, Keep: 64})
		prev, cells := 0, 0
		for i := 0; i < n; i++ {
			feedWindowTxn(plain, i)
			feedWindowTxn(b, i)
			b.fam.mu.Lock()
			cells = b.fam.win.cells.n
			b.fam.mu.Unlock()
			extra := b.RetainedBytes() - plain.RetainedBytes()
			if min := cells * int(unsafe.Sizeof(windowCell{})); extra < min {
				t.Fatalf("window %v, txn %d: %d cells add %d bytes, want at least %d", window, i, cells, extra, min)
			}
			if extra < prev {
				t.Fatalf("window %v, txn %d: %d cells add %d bytes, less than the previous %d", window, i, cells, extra, prev)
			}
			prev = extra
		}
		t.Logf("window %v: %d cells add %d bytes", window, cells, prev)
	}
}

// TestHammerWindowFamilyScrape: while one goroutine feeds completions into
// new window cells, others snapshot and render the registry, read the three
// run-total span sketches and the window cells, read the retained-bytes
// estimate and register plain metrics beside the family
// — the live dashboard's scrape pattern. Run under -race.
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
			var last [numWindowKinds]int64
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
				for k, name := range spanTotals {
					sv := reg.Sketch(name, spanTotalHelp[k]).snapshot()
					if sv.Count < last[k] || sv.Count > n {
						t.Errorf("run total %s read %d after %d", name, sv.Count, last[k])
						return
					}
					last[k] = sv.Count
				}
				if got := windowResponses(reg); got > n {
					t.Errorf("window cells hold %d responses", got)
					return
				}
				_ = b.RetainedBytes()
				reg.Counter(MetricName("asets_hammer_plain", "window", fmt.Sprint(i), "g", fmt.Sprint(g)), "")
			}
		}(g)
	}
	<-done
	wg.Wait()
	if got := windowResponses(reg); got != n {
		t.Fatalf("window cells hold %d responses, want %d", got, n)
	}
	for k, name := range spanTotals {
		if got := reg.Sketch(name, spanTotalHelp[k]).snapshot().Count; got != n {
			t.Fatalf("run total %s holds %d observations, want %d", name, got, n)
		}
	}
}

// windowResponses sums the counts of reg's windowed response cells.
func windowResponses(reg *Registry) int64 {
	var count int64
	for _, s := range reg.Snapshot().Sketches {
		if strings.HasPrefix(s.Name, "asets_window_response{") {
			count += s.Count
		}
	}
	return count
}
