package obs

import (
	"sync"
	"unsafe"

	"repro/internal/metrics"
)

// windowKinds are the measures of the span sketches, in the order a window
// cell and spanSketches.tot store them; windowHelp is each windowed family's
// HELP text.
var (
	windowKinds = [numWindowKinds]string{"tardiness", "response", "slowdown"}
	windowHelp  = [numWindowKinds]string{
		"windowed tardiness quantile sketch",
		"windowed response time quantile sketch",
		"windowed slowdown quantile sketch",
	}
)

const numWindowKinds = 3

// spanTotals are the names of the run-total span sketches, in windowKinds
// order, and spanTotalHelp their HELP texts.
var (
	spanTotals    = [numWindowKinds]string{MetricSpanTardiness, MetricSpanResponse, MetricSpanSlowdown}
	spanTotalHelp = [numWindowKinds]string{
		"per-span tardiness quantile sketch",
		"per-span response time quantile sketch",
		"per-span slowdown quantile sketch",
	}
)

// spanTotalKind returns the measure of a run-total span sketch name, or -1
// for any other name.
func spanTotalKind(name string) int {
	for k, n := range spanTotals {
		if name == n {
			return k
		}
	}
	return -1
}

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

// spanSketches is the registry-owned store of the span layer's sketches and
// the one lock that guards them all: the three run-total sketches
// (MetricSpan*, registered by name like any plain sketch, but guarded by this
// lock from creation) and the windowed families
// asets_window_{tardiness,response,slowdown}, modeled on a Prometheus
// SummaryVec. A completion takes the lock once for its run-total and window
// observations (observe).
//
// A registry has at most one spanSketches (Registry.spanFamily). Its cells
// have no formatted name and no entry in the registry's name, help or type
// tables; names are rendered (by WindowMetric) only on the cold paths —
// Registry.Snapshot and WritePrometheus. The cells still conflict by
// rendered name with the registry's other metrics: a counter, gauge,
// histogram or plain sketch under a name a cell renders to and that cell
// cannot both exist. Whichever of the two comes second panics, as a second
// registration of a name under another type does.
//
// Lock order: a registry's mu before its family's (registration and
// snapshots), and a SpanBuilder's before its registry's family (completions
// and RetainedBytes).
type spanSketches struct {
	mu  sync.Mutex
	tot [numWindowKinds]*metrics.Sketch // guarded by mu; the run totals' sketches, nil until registered (observe needs all three)
	win windowCells                     // guarded by mu
}

// observe records one completion's tardiness, response time and slowdown
// into the run totals and, for label >= 0, into the cell (win, label), under
// one lock acquisition. Each value's bucket index is computed once, outside
// the lock, for both sketches. It returns a taken name, observing nothing in
// the windows, when the cell would render to a plain metric's name.
func (f *spanSketches) observe(win, label int32, tardiness, response, slowdown float64) string {
	v := [numWindowKinds]float64{tardiness, response, slowdown}
	var idx [numWindowKinds]int16
	for k, x := range v {
		idx[k] = int16(metrics.BucketIndex(x))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, s := range f.tot {
		s.AddIndexed(v[k], int(idx[k]))
	}
	if label < 0 {
		return ""
	}
	return f.win.add(win, label, &v, &idx)
}

// label returns the id of the (class, mode) label pair.
func (f *spanSketches) label(class, mode string) int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.win.label(class, mode)
}

// claim reserves name for a plain metric (windowCells.claim).
func (f *spanSketches) claim(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.win.claim(name)
}

// retainedBytes estimates the memory the windowed families pin.
func (f *spanSketches) retainedBytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.win.retainedBytes()
}

// snapshot renders every cell as three named sketch values (unsorted). The
// values are read under the lock; the names are rendered after it is
// released, so a scrape holds up completions only for the reads.
func (f *spanSketches) snapshot() []SketchValue {
	f.mu.Lock()
	w := &f.win
	out := make([]SketchValue, 0, numWindowKinds*w.cells.n)
	keys := make([]windowKey, w.cells.n)
	for i := range keys {
		c := w.cells.at(int32(i))
		keys[i] = windowKey{win: c.win, label: c.label}
		sk := w.sketches(int32(i))
		for k := range sk {
			out = append(out, sketchValue(&sk[k]))
		}
	}
	labels := append([]windowLabels(nil), w.labels...)
	f.mu.Unlock()
	for i, key := range keys {
		l := labels[key.label]
		for k := range windowKinds {
			sv := &out[numWindowKinds*i+k]
			sv.Name = WindowMetric(windowKinds[k], int(key.win), l.class, l.mode)
			sv.Help = windowHelp[k]
		}
	}
	return out
}

// windowLabels is one interned (class, mode) label pair.
type windowLabels struct{ class, mode string }

// windowKey identifies a cell: the window index and an interned label pair.
type windowKey struct {
	win   int32
	label int32
}

// cellRaw is the number of observations a window cell keeps raw before it
// moves them into real sketches. Over a live-replay run (30k weighted
// workflow transactions, window 100) 59% of cells end with one observation,
// 28% with two and 13% with more.
const cellRaw = 2

// windowCell is one (window, class, mode) cell of the windowed families: a
// pointer-free slab slot of 80 bytes. It holds its first cellRaw
// observations raw, each with the bucket indices observe computed; the next
// one promotes it to three metrics.Sketch values in windowCells.side, filled
// from the raw observations in arrival order. Either way a read sees exactly
// the sketches that in-order Adds would have built (windowCells.sketches).
type windowCell struct {
	win, label int32
	n          int32                            // raw observations held, at most cellRaw
	side       int32                            // 1 + the cell's index in windowCells.side once promoted, 0 while raw
	v          [cellRaw][numWindowKinds]float64 // raw observations in arrival order
	idx        [cellRaw][numWindowKinds]int16   // their bucket indices
}

// windowCells holds the cells of the windowed families and the plain metric
// names reserved under a family base. It does no locking of its own:
// spanSketches guards it.
type windowCells struct {
	labels []windowLabels // interned label pairs, indexed by label id
	// rows[label][win] is 1 + the slot of cell (win, label), 0 for none: a
	// dense index over windows 0 <= win < len(rows[label]) that grows by
	// doubling, so it allocates nothing per window. A cell whose window lies
	// beyond the rows' reach (denseReach) is indexed in far instead.
	rows   [][]int32
	far    map[windowKey]int32
	cells  slab[windowCell]                     // pointer-free, in creation order
	side   slab[[numWindowKinds]metrics.Sketch] // sketches of promoted cells
	shadow map[string]struct{}                  // plain metric names under a family base
}

// add files one observation — its three measures and their bucket indices —
// into the cell (win, label), creating the cell on first use. It returns a
// taken name, without observing, when a new cell would render to a plain
// metric's name.
func (w *windowCells) add(win, label int32, v *[numWindowKinds]float64, idx *[numWindowKinds]int16) string {
	slot, ok := w.find(win, label)
	if !ok {
		if len(w.shadow) > 0 {
			if name := w.shadowed(win, label); name != "" {
				return name
			}
		}
		slot = w.create(win, label)
	}
	c := w.cells.at(slot)
	if c.side == 0 && c.n < cellRaw {
		c.v[c.n], c.idx[c.n] = *v, *idx
		c.n++
		return ""
	}
	sk := w.promoted(slot)
	for k := range sk {
		sk[k].AddIndexed(v[k], int(idx[k]))
	}
	return ""
}

// find returns the slot of cell (win, label).
func (w *windowCells) find(win, label int32) (int32, bool) {
	if row := w.rows[label]; win >= 0 && int(win) < len(row) && row[win] != 0 {
		return row[win] - 1, true
	}
	if w.far != nil {
		slot, ok := w.far[windowKey{win: win, label: label}]
		return slot, ok
	}
	return 0, false
}

// create carves a fresh cell (win, label) from the slab and indexes it.
func (w *windowCells) create(win, label int32) int32 {
	slot := w.cells.add()
	c := w.cells.at(slot)
	c.win, c.label = win, label
	if row := w.rows[label]; win >= 0 && int(win) < len(row) {
		row[win] = slot + 1
		return slot
	}
	w.index(win, label, slot)
	return slot
}

// slab is a chunked store of T addressed by dense slot numbers. Chunks of
// slabChunk zeroed elements are allocated as the slab fills and never move,
// so growing it copies nothing and allocates each element once; for a
// pointer-free T the garbage collector never scans the chunks.
type slab[T any] struct {
	chunks []*[slabChunk]T
	n      int // elements handed out
}

// slabChunk is the number of elements per slab chunk.
const slabChunk = 128

// add hands out the next element, zeroed, and returns its slot.
func (s *slab[T]) add() int32 {
	if s.n == len(s.chunks)*slabChunk {
		//lint:ignore hotpath-alloc amortized slab growth: one chunk per slabChunk elements, never copied
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	s.n++
	return int32(s.n - 1)
}

// at returns the element in slot i (0 <= i < s.n).
func (s *slab[T]) at(i int32) *T { return &s.chunks[uint32(i)/slabChunk][uint32(i)%slabChunk] }

// bytes returns the memory the slab pins: its chunks and the chunk table.
func (s *slab[T]) bytes() int {
	var zero T
	return len(s.chunks)*slabChunk*int(unsafe.Sizeof(zero)) + cap(s.chunks)*int(unsafe.Sizeof(&zero))
}

// denseReach bounds a row's length: windows below it are indexed densely.
// It grows with the cells made, so a dense row never costs more than a few
// words per cell, however sparse the windows.
func (w *windowCells) denseReach() int { return 4*w.cells.n + 1024 }

// index records a cell whose window lies past its row's end: it grows the
// row by doubling when the window is within denseReach, and otherwise files
// the cell in the far map.
//
//lint:coldpath a row grows O(log windows) times per label; far cells exist only for windows far beyond every cell made
func (w *windowCells) index(win, label, slot int32) {
	if reach := w.denseReach(); win >= 0 && int(win) < reach {
		row := w.rows[label]
		grown := make([]int32, min(max(2*len(row), int(win)+1, 64), reach))
		copy(grown, row)
		grown[win] = slot + 1
		w.rows[label] = grown
		return
	}
	if w.far == nil {
		w.far = make(map[windowKey]int32)
	}
	w.far[windowKey{win: win, label: label}] = slot
}

// promoted returns the cell's side sketches, first promoting a raw cell:
// the sketches are filled from its raw observations in arrival order.
func (w *windowCells) promoted(slot int32) *[numWindowKinds]metrics.Sketch {
	c := w.cells.at(slot)
	if c.side == 0 {
		c.side = w.side.add() + 1
		sk := w.side.at(c.side - 1)
		for i := 0; i < int(c.n); i++ {
			for k := range sk {
				sk[k].AddIndexed(c.v[i][k], int(c.idx[i][k]))
			}
		}
	}
	return w.side.at(c.side - 1)
}

// sketches returns the cell's three sketches: its side sketches once
// promoted (sharing their bucket arrays, so callers only read them under
// the lock), otherwise the sketches its raw observations build in arrival
// order.
func (w *windowCells) sketches(slot int32) [numWindowKinds]metrics.Sketch {
	c := w.cells.at(slot)
	if c.side != 0 {
		return *w.side.at(c.side - 1)
	}
	var sk [numWindowKinds]metrics.Sketch
	for i := 0; i < int(c.n); i++ {
		for k := range sk {
			sk[k].AddIndexed(c.v[i][k], int(c.idx[i][k]))
		}
	}
	return sk
}

// label returns the id of the (class, mode) label pair, interning it (with
// an empty row) on first sight.
//
//lint:coldpath a label pair is interned once per distinct pair, not per window or completion
func (w *windowCells) label(class, mode string) int32 {
	for i, l := range w.labels {
		if l.class == class && l.mode == mode {
			return int32(i)
		}
	}
	w.labels = append(w.labels, windowLabels{class: class, mode: mode})
	w.rows = append(w.rows, nil)
	return int32(len(w.labels) - 1)
}

// shadowed returns the first of cell (win, label)'s rendered names that a
// plain metric holds, or "".
//
//lint:coldpath runs only while plain metrics hold names under a family base
func (w *windowCells) shadowed(win, label int32) string {
	l := w.labels[label]
	for k := range windowKinds {
		name := WindowMetric(windowKinds[k], int(win), l.class, l.mode)
		if _, dup := w.shadow[name]; dup {
			return name
		}
	}
	return ""
}

// claim reserves name for a plain metric: it reports true when a cell
// already renders to name, and otherwise records name so that no cell
// rendering to it is created later. Cold: it renders every cell, and runs
// only for names under a family base.
func (w *windowCells) claim(name string) bool {
	for i := 0; i < w.cells.n; i++ {
		c := w.cells.at(int32(i))
		l := w.labels[c.label]
		for k := range windowKinds {
			if WindowMetric(windowKinds[k], int(c.win), l.class, l.mode) == name {
				return true
			}
		}
	}
	if w.shadow == nil {
		w.shadow = make(map[string]struct{})
	}
	w.shadow[name] = struct{}{}
	return false
}

// retainedBytes estimates the memory the cells pin: the cell and side
// slabs, the side sketches' bucket arrays, the dense rows and the far map.
func (w *windowCells) retainedBytes() int {
	total := w.cells.bytes() + w.side.bytes()
	for i := 0; i < w.side.n; i++ {
		for _, sk := range w.side.at(int32(i)) {
			total += sk.HeapBytes()
		}
	}
	for _, row := range w.rows {
		total += 4 * cap(row)
	}
	// A map entry costs its key and value plus about one word of bucket
	// overhead.
	total += len(w.far) * (int(unsafe.Sizeof(windowKey{})) + 4 + 8)
	return total
}
