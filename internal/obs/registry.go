package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; updates are single atomic adds, cheap enough for the
// scheduler hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down (current simulated
// time, queue depth). Updates are single atomic stores.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Histogram is a registry handle around metrics.Histogram: the same
// geometric buckets the offline analyses use, guarded by a mutex so the
// executor goroutine can observe while HTTP handlers snapshot. The mutex is
// the handle's own, except for the second histogram of a pair
// (Registry.HistogramPair), which shares the first's.
type Histogram struct {
	mu  *sync.Mutex        // &own, or the lock of the pair's first histogram
	h   *metrics.Histogram // guarded by mu
	own sync.Mutex
}

// Observe records one non-negative observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// HistogramPair is two histograms observed together, such as a completion's
// tardiness and response time: one Observe takes their shared lock once.
type HistogramPair struct{ a, b *Histogram }

// Observe records x into the first histogram and y into the second. A pair
// whose histograms were registered apart, and so hold different locks,
// takes each lock in turn.
func (p HistogramPair) Observe(x, y float64) {
	if p.a.mu != p.b.mu {
		p.a.Observe(x)
		p.b.Observe(y)
		return
	}
	p.a.mu.Lock()
	p.a.h.Add(x)
	//lint:ignore lockguard p.b shares p.a's lock, checked above
	p.b.h.Add(y)
	p.a.mu.Unlock()
}

// snapshot copies the histogram state under the lock.
func (h *Histogram) snapshot() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramValue{
		Count:   h.h.N(),
		Sum:     h.h.Sum(),
		Max:     h.h.Max(),
		Buckets: h.h.Buckets(),
	}
}

// Sketch is a registry handle around metrics.Sketch: the fixed-boundary
// quantile sketch behind the span layer's percentiles, guarded by a mutex so
// the simulation goroutine can observe while HTTP handlers snapshot. The
// mutex is the handle's own, except for the span layer's three run-total
// sketches (MetricSpan*), which share their registry's span-family lock
// with the windowed cells (spanSketches).
type Sketch struct {
	mu  *sync.Mutex    // &own, or the span family's lock
	s   metrics.Sketch // guarded by mu
	own sync.Mutex
}

// sketchQuantiles are the percentiles every sketch snapshot reports — the
// SLA trio the paper's tardiness analysis and the windowed exports use.
var sketchQuantiles = []float64{0.5, 0.95, 0.99}

// snapshot copies the sketch state under the lock.
func (s *Sketch) snapshot() SketchValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sketchValue(&s.s)
}

// sketchValue reads a sketch's count, sum, max and reported quantiles.
func sketchValue(s *metrics.Sketch) SketchValue {
	sv := SketchValue{
		Count: s.N(),
		Sum:   s.Sum(),
		Max:   s.Max(),
	}
	for _, q := range sketchQuantiles {
		sv.Quantiles = append(sv.Quantiles, QuantileValue{Q: q, Value: s.Quantile(q)})
	}
	return sv
}

// Registry holds the named metrics of one run. Handles are created once
// (get-or-create, so independent instrumentation sites can share a metric
// by name) and updated lock-free on the hot path; Snapshot produces a
// deterministic, name-sorted view for exporters.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	sketches map[string]*Sketch    // guarded by mu
	help     map[string]string     // guarded by mu
	names    []string              // registration-complete name list, sorted lazily; guarded by mu
	span     *spanSketches         // guarded by mu; the span layer's sketches and their lock, nil until first use
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sketches: make(map[string]*Sketch),
		help:     make(map[string]string),
	}
}

// windowClaimed reports whether a windowed family cell renders to name. When
// none does and name lies under a family base, the family records name as
// taken by a plain metric (windowCells.claim), so callers go on to register
// it or return a conflict. f may be nil.
func windowClaimed(f *spanSketches, name string) bool {
	return f != nil && windowBaseOf(name) && f.claim(name)
}

// spanFamily returns the registry's span sketches, creating them on first
// use.
func (r *Registry) spanFamily() *spanSketches {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.span == nil {
		r.span = newSpanSketches(r.names)
	}
	return r.span
}

// newSpanSketches returns an empty span family that reserves the plain
// metric names already registered under a family base.
//
//lint:coldpath family creation happens once per registry
func newSpanSketches(names []string) *spanSketches {
	f := &spanSketches{}
	for _, name := range names {
		if windowBaseOf(name) {
			f.win.claim(name)
		}
	}
	return f
}

// register records a name the first time it appears and rejects a name
// reused across metric types.
func (r *Registry) register(name, help string, taken bool) {
	if taken {
		panic(fmt.Sprintf("obs: metric name %q already registered with a different type", name))
	}
	//lint:ignore lockguard register is the locked-section helper of the four getters; every caller holds r.mu
	if _, dup := r.help[name]; !dup {
		//lint:ignore lockguard caller holds r.mu (see above)
		r.names = append(r.names, name)
	}
	//lint:ignore lockguard caller holds r.mu (see above)
	r.help[name] = help
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different metric type panics.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	_, g := r.gauges[name]
	_, h := r.hists[name]
	_, s := r.sketches[name]
	r.register(name, help, g || h || s || windowClaimed(r.span, name))
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	_, c := r.counters[name]
	_, h := r.hists[name]
	_, s := r.sketches[name]
	r.register(name, help, c || h || s || windowClaimed(r.span, name))
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.histogram(name, help, nil)
}

// HistogramPair returns the histograms registered under a and b as a pair,
// creating each on first use. A histogram b created here shares a's lock,
// so the pair's Observe locks once.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) HistogramPair(a, helpA, b, helpB string) HistogramPair {
	ha := r.Histogram(a, helpA)
	return HistogramPair{ha, r.histogram(b, helpB, ha.mu)}
}

// histogram is the get-or-create body of Histogram and HistogramPair. A
// histogram created here is guarded by mu, or by its own lock when mu is
// nil.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) histogram(name, help string, mu *sync.Mutex) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, s := r.sketches[name]
	r.register(name, help, c || g || s || windowClaimed(r.span, name))
	h := &Histogram{h: metrics.NewHistogram(), mu: mu}
	if mu == nil {
		h.mu = &h.own
	}
	r.hists[name] = h
	return h
}

// Sketch returns the quantile sketch registered under name, creating it on
// first use. Name may carry a Prometheus label set (`asets_plain{shard="3"}`)
// — the exporter splits base name and labels apart. The span layer's
// run-total sketches (MetricSpan*) are registered here but share the span
// family's lock; its per-(window, class, mode) sketches are not registered
// here but live in the registry's spanSketches.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Sketch(name, help string) *Sketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sketches[name]; ok {
		return s
	}
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	r.register(name, help, c || g || h || windowClaimed(r.span, name))
	s := &Sketch{}
	s.mu = &s.own
	if k := spanTotalKind(name); k >= 0 {
		if r.span == nil {
			r.span = newSpanSketches(r.names)
		}
		f := r.span
		s.mu = &f.mu
		f.mu.Lock()
		f.tot[k] = &s.s
		f.mu.Unlock()
	}
	r.sketches[name] = s
	return s
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Help  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Help  string
	Value float64
}

// HistogramValue is one histogram in a snapshot. Buckets are the geometric
// cells of metrics.Histogram, per-bucket (not cumulative), zero bucket
// first.
type HistogramValue struct {
	Name    string
	Help    string
	Count   int
	Sum     float64
	Max     float64
	Buckets []metrics.Bucket
}

// QuantileValue is one reported percentile of a sketch snapshot.
type QuantileValue struct {
	Q     float64
	Value float64
}

// SketchValue is one quantile sketch in a snapshot, carrying the standard
// p50/p95/p99 trio plus count/sum/max.
type SketchValue struct {
	Name      string
	Help      string
	Count     int64
	Sum       float64
	Max       float64
	Quantiles []QuantileValue
}

// Snapshot is a deterministic point-in-time view of a registry: every
// section sorted by metric name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
	Sketches   []SketchValue
}

// Snapshot captures every metric. The result is identical for identical
// metric states regardless of registration or map order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	sort.Strings(names)
	var snap Snapshot
	for _, name := range names {
		help := r.help[name]
		if c, ok := r.counters[name]; ok {
			snap.Counters = append(snap.Counters, CounterValue{Name: name, Help: help, Value: c.Value()})
		} else if g, ok := r.gauges[name]; ok {
			snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Help: help, Value: g.Value()})
		} else if h, ok := r.hists[name]; ok {
			hv := h.snapshot()
			hv.Name, hv.Help = name, help
			snap.Histograms = append(snap.Histograms, hv)
		} else if s, ok := r.sketches[name]; ok {
			sv := s.snapshot()
			sv.Name, sv.Help = name, help
			snap.Sketches = append(snap.Sketches, sv)
		}
	}
	span := r.span
	r.mu.Unlock()
	// Windowed cells render their names here, at snapshot time, and sort in
	// among the plain sketches.
	if span != nil {
		if cells := span.snapshot(); len(cells) > 0 {
			snap.Sketches = append(snap.Sketches, cells...)
			sort.Slice(snap.Sketches, func(i, j int) bool { return snap.Sketches[i].Name < snap.Sketches[j].Name })
		}
	}
	return snap
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
