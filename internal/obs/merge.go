package obs

import "fmt"

// Merge folds every metric of src into r: counters add, gauges take src's
// value (so merging run registries in job order leaves the last run's gauge,
// mirroring what a serial run over the same jobs would have left), histograms
// merge bucket-by-bucket via metrics.Histogram.Merge, and quantile sketches
// merge cell-by-cell via metrics.Sketch.Merge — windowed sketch cells by
// their (window, class, mode) key. Metrics absent from r are
// created with src's help text.
//
// Merge is the aggregation step of the parallel experiment engine
// (docs/PARALLELISM.md): each run writes to a private registry, and the
// harness merges them in job order afterwards, which keeps the merged
// counters, bucket counts and histogram sums bit-identical to a serial run.
// src must be quiescent — merging a registry that is still being written
// concurrently would interleave half-updated histograms. r and src must be
// distinct registries.
//
// It returns an error when a name is registered with different metric types
// in the two registries.
func (r *Registry) Merge(src *Registry) error {
	if src == nil {
		return nil
	}
	if src == r {
		return fmt.Errorf("obs: cannot merge a registry into itself")
	}
	// Snapshot src's handle tables under its lock; the handles themselves
	// are updated atomically (counters, gauges) or under their locks
	// (histograms), so reading their values afterwards is safe.
	src.mu.Lock()
	names := make([]string, len(src.names))
	copy(names, src.names)
	counters := make(map[string]*Counter, len(src.counters))
	//lint:ignore maprange map-to-map handle copy; the merge itself walks names in registration order
	for n, c := range src.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(src.gauges))
	//lint:ignore maprange map-to-map handle copy; order-independent
	for n, g := range src.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(src.hists))
	//lint:ignore maprange map-to-map handle copy; order-independent
	for n, h := range src.hists {
		hists[n] = h
	}
	sketches := make(map[string]*Sketch, len(src.sketches))
	//lint:ignore maprange map-to-map handle copy; order-independent
	for n, s := range src.sketches {
		sketches[n] = s
	}
	span := src.span
	help := make(map[string]string, len(src.help))
	//lint:ignore maprange map-to-map handle copy; order-independent
	for n, h := range src.help {
		help[n] = h
	}
	src.mu.Unlock()

	// names preserves src's registration order, which makes the merge — and
	// therefore any type-conflict error — deterministic.
	for _, name := range names {
		switch {
		case counters[name] != nil:
			r.mu.Lock()
			_, g := r.gauges[name]
			_, h := r.hists[name]
			_, s := r.sketches[name]
			w := windowClaimed(r.span, name)
			r.mu.Unlock()
			if g || h || s || w {
				return fmt.Errorf("obs: merge: %q is a counter in the source but not in the destination", name)
			}
			r.Counter(name, help[name]).Add(counters[name].Value())
		case gauges[name] != nil:
			r.mu.Lock()
			_, c := r.counters[name]
			_, h := r.hists[name]
			_, s := r.sketches[name]
			w := windowClaimed(r.span, name)
			r.mu.Unlock()
			if c || h || s || w {
				return fmt.Errorf("obs: merge: %q is a gauge in the source but not in the destination", name)
			}
			r.Gauge(name, help[name]).Set(gauges[name].Value())
		case hists[name] != nil:
			r.mu.Lock()
			_, c := r.counters[name]
			_, g := r.gauges[name]
			_, s := r.sketches[name]
			w := windowClaimed(r.span, name)
			r.mu.Unlock()
			if c || g || s || w {
				return fmt.Errorf("obs: merge: %q is a histogram in the source but not in the destination", name)
			}
			sh := hists[name]
			sh.mu.Lock()
			dh := r.Histogram(name, help[name])
			if dh == sh {
				sh.mu.Unlock()
				return fmt.Errorf("obs: merge: histogram %q is shared between source and destination", name)
			}
			dh.mu.Lock()
			dh.h.Merge(sh.h)
			dh.mu.Unlock()
			sh.mu.Unlock()
		case sketches[name] != nil:
			r.mu.Lock()
			_, c := r.counters[name]
			_, g := r.gauges[name]
			_, h := r.hists[name]
			w := windowClaimed(r.span, name)
			r.mu.Unlock()
			if c || g || h || w {
				return fmt.Errorf("obs: merge: %q is a sketch in the source but not in the destination", name)
			}
			ss := sketches[name]
			ss.mu.Lock()
			ds := r.Sketch(name, help[name])
			if ds == ss {
				ss.mu.Unlock()
				return fmt.Errorf("obs: merge: sketch %q is shared between source and destination", name)
			}
			ds.mu.Lock()
			ds.s.Merge(&ss.s)
			ds.mu.Unlock()
			ss.mu.Unlock()
		}
	}
	// Windowed sketch cells merge family to family, after the plain metrics.
	if span != nil {
		return r.spanFamily().merge(span)
	}
	return nil
}
