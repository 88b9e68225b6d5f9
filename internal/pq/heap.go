// Package pq provides the priority queue used by the schedulers: a generic
// indexed binary heap supporting O(log n) update and removal of arbitrary
// elements. It meets the O(log N) bound the paper asks of its "standard
// balanced binary search tree" priority lists.
package pq

// Item is the element stored in a Heap. Embedding bookkeeping in the item
// (rather than returning opaque handles) lets schedulers move transactions
// and workflows between the EDF and SRPT/HDF lists without map lookups.
//
// The zero Item (with Value set) is ready to push, so items can live by
// value inside a caller's slab — push &slab[i] — instead of one heap object
// each. The slab must not be reallocated while any of its items is enqueued.
type Item[T any] struct {
	Value T
	pos   int // 1 + position in the heap slice; 0 when not enqueued
	owner *Heap[T]
}

// InHeap reports whether the item is currently enqueued in any heap.
func (it *Item[T]) InHeap() bool { return it.pos > 0 }

// Owner returns the heap the item currently belongs to, or nil.
func (it *Item[T]) Owner() *Heap[T] { return it.owner }

// Heap is an indexed binary min-heap ordered by a user-supplied less
// function. The zero value is not usable; construct with NewHeap.
type Heap[T any] struct {
	items []*Item[T]
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less (a min-heap with respect to
// less; pass an inverted comparison for max-heap behaviour).
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	if less == nil {
		panic("pq: NewHeap called with nil less function")
	}
	return &Heap[T]{less: less}
}

// Len returns the number of enqueued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts it into the heap. It panics if the item is already enqueued
// (in this heap or another), because silently double-inserting a transaction
// is always a scheduler bug.
func (h *Heap[T]) Push(it *Item[T]) {
	if it.pos > 0 {
		panic("pq: Push of item that is already in a heap")
	}
	it.pos = len(h.items) + 1
	it.owner = h
	//lint:ignore hotpath-alloc the heap slice reaches the peak population during warm-up and is reused across push/pop cycles
	h.items = append(h.items, it)
	h.up(it.pos - 1)
}

// Peek returns the minimum item without removing it, or nil if empty.
func (h *Heap[T]) Peek() *Item[T] {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// Pop removes and returns the minimum item, or nil if the heap is empty.
func (h *Heap[T]) Pop() *Item[T] {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	h.Remove(top)
	return top
}

// Remove deletes it from the heap in O(log n). It panics if the item is not
// currently in this heap.
func (h *Heap[T]) Remove(it *Item[T]) {
	if it.owner != h || it.pos == 0 {
		panic("pq: Remove of item that is not in this heap")
	}
	i := it.pos - 1
	last := len(h.items) - 1
	if i != last {
		h.items[i] = h.items[last]
		h.items[i].pos = i + 1
	}
	h.items = h.items[:last]
	it.pos = 0
	it.owner = nil
	if i != last {
		if !h.down(i) {
			h.up(i)
		}
	}
}

// Clear removes every item, keeping the heap's capacity: a policy
// re-initialized for another run empties its heaps instead of building new
// ones.
func (h *Heap[T]) Clear() {
	for _, it := range h.items {
		it.pos, it.owner = 0, nil
	}
	clear(h.items)
	h.items = h.items[:0]
}

// Fix re-establishes the heap invariant after the priority of it changed in
// place (e.g. a preempted transaction's remaining time shrank). It panics if
// the item is not in this heap.
func (h *Heap[T]) Fix(it *Item[T]) {
	if it.owner != h || it.pos == 0 {
		panic("pq: Fix of item that is not in this heap")
	}
	if i := it.pos - 1; !h.down(i) {
		h.up(i)
	}
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i].Value, h.items[parent].Value) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap[T]) down(i0 int) bool {
	i := i0
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right].Value, h.items[left].Value) {
			smallest = right
		}
		if !h.less(h.items[smallest].Value, h.items[i].Value) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i > i0
}

func (h *Heap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].pos = i + 1
	h.items[j].pos = j + 1
}

// Verify checks the heap invariant for every node and reports whether it
// holds. It is O(n) and intended for tests and the trace validator only.
func (h *Heap[T]) Verify() bool {
	for i := 1; i < len(h.items); i++ {
		parent := (i - 1) / 2
		if h.less(h.items[i].Value, h.items[parent].Value) {
			return false
		}
		if h.items[i].pos != i+1 || h.items[i].owner != h {
			return false
		}
	}
	if len(h.items) > 0 && (h.items[0].pos != 1 || h.items[0].owner != h) {
		return false
	}
	return true
}

// Walker visits a heap's items in the heap's order without removing any:
// its front is a small binary heap, under the heap's order, of positions in
// the heap's array whose parents were visited, so it grows by at most one
// position per visit and k visits cost O(k log k) comparisons. A visit
// (Visit) leaves the front as it is until the next Peek, so a walk that
// only looks at the top touches nothing below it. The heap must not change
// during a walk. The zero Walker is ready to Reset.
type Walker[T any] struct {
	h       *Heap[T]
	front   []int32
	visited bool
	buf     [32]int32 // the front's storage until a walk outgrows it
}

// Reset starts a walk of h from its top.
func (w *Walker[T]) Reset(h *Heap[T]) {
	if w.front == nil {
		w.front = w.buf[:0]
	}
	w.h, w.front, w.visited = h, w.front[:0], false
	if len(h.items) > 0 {
		//lint:ignore hotpath-alloc the front was just emptied, and its buffer holds 32 positions
		w.front = append(w.front, 0)
	}
}

// Peek returns the walk's next item, or nil when every item was visited.
func (w *Walker[T]) Peek() *Item[T] {
	if w.visited {
		w.pop()
	}
	if len(w.front) == 0 {
		return nil
	}
	return w.h.items[w.front[0]]
}

// Visit moves the walk past the item Peek returned.
func (w *Walker[T]) Visit() { w.visited = true }

// pop drops the visited first position of the front and adds its
// children.
func (w *Walker[T]) pop() {
	w.visited = false
	i := w.front[0]
	last := len(w.front) - 1
	w.front[0] = w.front[last]
	w.front = w.front[:last]
	w.down()
	for c := 2*i + 1; c <= 2*i+2 && int(c) < len(w.h.items); c++ {
		w.push(c)
	}
}

func (w *Walker[T]) less(i, j int) bool {
	return w.h.less(w.h.items[w.front[i]].Value, w.h.items[w.front[j]].Value)
}

func (w *Walker[T]) push(pos int32) {
	//lint:ignore hotpath-alloc the front starts in the walker's own buffer and grows at most to the widest walk, then is reused by every later walk
	w.front = append(w.front, pos)
	for i := len(w.front) - 1; i > 0; {
		parent := (i - 1) / 2
		if !w.less(i, parent) {
			break
		}
		w.front[i], w.front[parent] = w.front[parent], w.front[i]
		i = parent
	}
}

func (w *Walker[T]) down() {
	for i, n := 0, len(w.front); ; {
		least := 2*i + 1
		if least >= n {
			return
		}
		if r := least + 1; r < n && w.less(r, least) {
			least = r
		}
		if !w.less(least, i) {
			return
		}
		w.front[i], w.front[least] = w.front[least], w.front[i]
		i = least
	}
}
