package obs

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/metrics"
)

// windowKinds are the measures of the windowed span sketches, in the order a
// windowCell stores them; windowHelp is each family's HELP text.
var (
	windowKinds = [numWindowKinds]string{"tardiness", "response", "slowdown"}
	windowHelp  = [numWindowKinds]string{
		"windowed tardiness quantile sketch",
		"windowed response time quantile sketch",
		"windowed slowdown quantile sketch",
	}
)

const numWindowKinds = 3

// windowBase returns the exported base name of measure k.
func windowBase(k int) string { return "asets_window_" + windowKinds[k] }

// windowBaseOf reports whether name's base is one of the windowed families'.
func windowBaseOf(name string) bool {
	base, _ := splitMetricName(name)
	for k := range windowKinds {
		if base == windowBase(k) {
			return true
		}
	}
	return false
}

// windowSketches is the registry-owned store of the windowed span sketches:
// the asets_window_{tardiness,response,slowdown} summary families, modeled
// on a Prometheus SummaryVec. One cell per (window, class, mode) key holds
// the three measures' sketches by value under one lock, carved from chunked
// slabs; a cell has no formatted name and no entry in the registry's name,
// help or type tables. Names are rendered (by WindowMetric) only on the cold
// paths — Registry.Snapshot, WritePrometheus and Registry.Merge — which is
// what keeps a fresh cell down to a slab slot and an index entry.
//
// A registry has at most one windowSketches (Registry.windowFamily). Its
// cells still conflict by rendered name with the registry's other metrics:
// a counter, gauge, histogram or plain sketch under a name a cell renders to
// and that cell cannot both exist. Whichever of the two comes second panics,
// as a second registration of a name under another type does, and a merge
// that would create it returns an error.
type windowSketches struct {
	mu     sync.Mutex
	labels []windowLabels            // guarded by mu; interned (class, mode) label pairs
	index  map[windowKey]*windowCell // guarded by mu
	slabs  [][]windowCell            // guarded by mu; cells in creation order, last slab partly used
	used   int                       // guarded by mu; cells handed out from the last slab
	shadow map[string]struct{}       // guarded by mu; plain metric names under a family base
}

// windowLabels is one interned (class, mode) label pair.
type windowLabels struct{ class, mode string }

// windowKey identifies a cell: the window index and an interned label pair.
type windowKey struct {
	win   int32
	label int32
}

// windowCell is one (window, class, mode) cell of the windowed families.
type windowCell struct {
	mu  sync.Mutex
	key windowKey
	sk  [numWindowKinds]metrics.Sketch // guarded by mu
}

// observe records one completion's tardiness, response time and slowdown
// under a single lock acquisition.
func (c *windowCell) observe(tardiness, response, slowdown float64) {
	c.mu.Lock()
	c.sk[0].Add(tardiness)
	c.sk[1].Add(response)
	c.sk[2].Add(slowdown)
	c.mu.Unlock()
}

// windowSlabMax caps a slab's length; slabs start small and double up to
// it, so a short run carves a few cells from a small slab while a long one
// allocates once per windowSlabMax cells.
const windowSlabMax = 256

// windowFamily returns the registry's windowed sketch families, creating
// them on first use.
//
//lint:coldpath family creation happens once per registry
func (r *Registry) windowFamily() *windowSketches {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.window == nil {
		f := &windowSketches{
			index:  make(map[windowKey]*windowCell),
			shadow: make(map[string]struct{}),
		}
		for _, name := range r.names {
			if windowBaseOf(name) {
				f.shadow[name] = struct{}{}
			}
		}
		r.window = f
	}
	return r.window
}

// cell returns the cell of (window, class, mode), creating it on first use.
// When one of the cell's rendered names is already registered as another
// metric it returns a nil cell and that name.
func (f *windowSketches) cell(window int, class, mode string) (*windowCell, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	label := -1
	for i, l := range f.labels {
		if l.class == class && l.mode == mode {
			label = i
			break
		}
	}
	if label < 0 {
		label = len(f.labels)
		f.labels = append(f.labels, windowLabels{class: class, mode: mode})
	}
	key := windowKey{win: int32(window), label: int32(label)}
	if c := f.index[key]; c != nil {
		return c, ""
	}
	if len(f.shadow) > 0 {
		for k := range windowKinds {
			name := WindowMetric(windowKinds[k], window, class, mode)
			if _, dup := f.shadow[name]; dup {
				return nil, name
			}
		}
	}
	if n := len(f.slabs); n == 0 || f.used == len(f.slabs[n-1]) {
		size := 8
		if n > 0 {
			size = min(2*len(f.slabs[n-1]), windowSlabMax)
		}
		f.slabs = append(f.slabs, make([]windowCell, size))
		f.used = 0
	}
	c := &f.slabs[len(f.slabs)-1][f.used]
	f.used++
	c.key = key
	f.index[key] = c
	return c, ""
}

// cells returns every cell in creation order with its label pair.
func (f *windowSketches) cells() ([]*windowCell, []windowLabels) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*windowCell, 0, len(f.index))
	for i, slab := range f.slabs {
		if i == len(f.slabs)-1 {
			slab = slab[:f.used]
		}
		for j := range slab {
			out = append(out, &slab[j])
		}
	}
	return out, append([]windowLabels(nil), f.labels...)
}

// claim reserves name for a plain metric: it reports true when a cell
// already renders to name, and otherwise records name so that no cell
// rendering to it is created later. Cold: it renders every cell, and runs
// only for names under a family base.
func (f *windowSketches) claim(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, slab := range f.slabs {
		if i == len(f.slabs)-1 {
			slab = slab[:f.used]
		}
		for j := range slab {
			l := f.labels[slab[j].key.label]
			for k := range windowKinds {
				if WindowMetric(windowKinds[k], int(slab[j].key.win), l.class, l.mode) == name {
					return true
				}
			}
		}
	}
	f.shadow[name] = struct{}{}
	return false
}

// retainedBytes estimates the memory the families pin: the cell slabs, the
// cell index and every cell's dense bucket arrays.
func (f *windowSketches) retainedBytes() int {
	cells, _ := f.cells()
	f.mu.Lock()
	// A map entry costs its key and value plus about one word of bucket
	// overhead.
	total := len(f.index) * (int(unsafe.Sizeof(windowKey{})) + 2*int(unsafe.Sizeof(&windowCell{})))
	for _, slab := range f.slabs {
		total += len(slab) * int(unsafe.Sizeof(windowCell{}))
	}
	f.mu.Unlock()
	for _, c := range cells {
		c.mu.Lock()
		for k := range c.sk {
			total += c.sk[k].HeapBytes()
		}
		c.mu.Unlock()
	}
	return total
}

// snapshot renders every cell as three named sketch values (unsorted).
func (f *windowSketches) snapshot() []SketchValue {
	cells, labels := f.cells()
	out := make([]SketchValue, 0, numWindowKinds*len(cells))
	for _, c := range cells {
		l := labels[c.key.label]
		c.mu.Lock()
		for k := range c.sk {
			sv := sketchValue(&c.sk[k])
			sv.Name = WindowMetric(windowKinds[k], int(c.key.win), l.class, l.mode)
			sv.Help = windowHelp[k]
			out = append(out, sv)
		}
		c.mu.Unlock()
	}
	return out
}

// mergeFrom folds every cell of src into f: cells absent from f are created,
// and each measure merges via metrics.Sketch.Merge. Cells are visited in
// src's creation order, so any error is deterministic.
func (f *windowSketches) mergeFrom(src *windowSketches) error {
	cells, labels := src.cells()
	for _, sc := range cells {
		l := labels[sc.key.label]
		dc, taken := f.cell(int(sc.key.win), l.class, l.mode)
		if dc == nil {
			return fmt.Errorf("obs: merge: %q is a sketch in the source but not in the destination", taken)
		}
		dc.mu.Lock()
		sc.mu.Lock()
		for k := range dc.sk {
			dc.sk[k].Merge(&sc.sk[k])
		}
		sc.mu.Unlock()
		dc.mu.Unlock()
	}
	return nil
}
