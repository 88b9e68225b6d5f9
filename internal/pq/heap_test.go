package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func intHeap() *Heap[int] {
	return NewHeap[int](func(a, b int) bool { return a < b })
}

func TestHeapEmpty(t *testing.T) {
	h := intHeap()
	if h.Len() != 0 {
		t.Fatalf("empty heap Len = %d", h.Len())
	}
	if h.Peek() != nil {
		t.Fatal("empty heap Peek != nil")
	}
	if h.Pop() != nil {
		t.Fatal("empty heap Pop != nil")
	}
}

func TestHeapPushPopSorted(t *testing.T) {
	h := intHeap()
	vals := []int{5, 3, 8, 1, 9, 2, 7, 2, 5}
	for _, v := range vals {
		h.Push(NewItem(v))
	}
	if !h.Verify() {
		t.Fatal("heap invariant broken after pushes")
	}
	sort.Ints(vals)
	for i, want := range vals {
		it := h.Pop()
		if it == nil || it.Value != want {
			t.Fatalf("pop %d = %v, want %d", i, it, want)
		}
		if it.InHeap() {
			t.Fatal("popped item still reports InHeap")
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after popping all: %d", h.Len())
	}
}

func TestHeapRemoveMiddle(t *testing.T) {
	h := intHeap()
	items := make([]*Item[int], 0, 10)
	for _, v := range []int{4, 9, 1, 7, 3, 8, 2, 6, 5, 0} {
		it := NewItem(v)
		items = append(items, it)
		h.Push(it)
	}
	// Remove the items holding 7 and 0.
	for _, it := range items {
		if it.Value == 7 || it.Value == 0 {
			h.Remove(it)
		}
	}
	if !h.Verify() {
		t.Fatal("heap invariant broken after removals")
	}
	want := []int{1, 2, 3, 4, 5, 6, 8, 9}
	for _, w := range want {
		if got := h.Pop().Value; got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}

func TestHeapFixAfterMutation(t *testing.T) {
	type job struct{ key int }
	h := NewHeap[*job](func(a, b *job) bool { return a.key < b.key })
	a, b, c := &job{5}, &job{10}, &job{15}
	ia, ib, ic := NewItem(a), NewItem(b), NewItem(c)
	h.Push(ia)
	h.Push(ib)
	h.Push(ic)
	// Make c the smallest in place and fix.
	c.key = 1
	h.Fix(ic)
	if h.Peek() != ic {
		t.Fatal("Fix did not float decreased key to the top")
	}
	// Make it the largest again.
	c.key = 100
	h.Fix(ic)
	if h.Peek() != ia {
		t.Fatal("Fix did not sink increased key")
	}
	if !h.Verify() {
		t.Fatal("heap invariant broken after Fix")
	}
	_ = b
}

func TestHeapPushDuplicatePanics(t *testing.T) {
	h := intHeap()
	it := NewItem(1)
	h.Push(it)
	defer expectPanic(t, "double Push")
	h.Push(it)
}

func TestHeapRemoveForeignPanics(t *testing.T) {
	h1, h2 := intHeap(), intHeap()
	it := NewItem(1)
	h1.Push(it)
	defer expectPanic(t, "Remove from wrong heap")
	h2.Remove(it)
}

func TestHeapFixUnqueuedPanics(t *testing.T) {
	h := intHeap()
	defer expectPanic(t, "Fix of unqueued item")
	h.Fix(NewItem(1))
}

func TestHeapNilLessPanics(t *testing.T) {
	defer expectPanic(t, "NewHeap(nil)")
	NewHeap[int](nil)
}

func TestHeapOwnerTracking(t *testing.T) {
	h := intHeap()
	it := NewItem(42)
	if it.Owner() != nil {
		t.Fatal("fresh item has an owner")
	}
	h.Push(it)
	if it.Owner() != h {
		t.Fatal("pushed item does not report its heap")
	}
	h.Remove(it)
	if it.Owner() != nil {
		t.Fatal("removed item still reports an owner")
	}
}

// TestHeapRandomOperations drives the heap against a reference model
// (a plain slice kept sorted) through thousands of random operations.
func TestHeapRandomOperations(t *testing.T) {
	src := rng.New(2024)
	h := intHeap()
	var live []*Item[int]
	for step := 0; step < 20000; step++ {
		switch op := src.Intn(10); {
		case op < 5 || len(live) == 0: // push
			it := NewItem(src.Intn(1000))
			h.Push(it)
			live = append(live, it)
		case op < 7: // pop minimum
			want := live[0]
			for _, it := range live {
				if it.Value < want.Value {
					want = it
				}
			}
			got := h.Pop()
			if got.Value != want.Value {
				t.Fatalf("step %d: pop = %d, want %d", step, got.Value, want.Value)
			}
			live = removeItem(live, got)
		case op < 9: // remove arbitrary
			victim := live[src.Intn(len(live))]
			h.Remove(victim)
			live = removeItem(live, victim)
		default: // mutate + fix
			it := live[src.Intn(len(live))]
			it.Value = src.Intn(1000)
			h.Fix(it)
		}
		if step%1000 == 0 && !h.Verify() {
			t.Fatalf("step %d: heap invariant broken", step)
		}
	}
	if h.Len() != len(live) {
		t.Fatalf("length mismatch: heap %d, model %d", h.Len(), len(live))
	}
}

func removeItem(s []*Item[int], it *Item[int]) []*Item[int] {
	for i, v := range s {
		if v == it {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// TestQuickHeapSortsAnything: pushing any int slice and popping yields the
// sorted slice.
func TestQuickHeapSortsAnything(t *testing.T) {
	f := func(vals []int) bool {
		h := intHeap()
		for _, v := range vals {
			h.Push(NewItem(v))
		}
		out := make([]int, 0, len(vals))
		for h.Len() > 0 {
			out = append(out, h.Pop().Value)
		}
		if !sort.IntsAreSorted(out) {
			return false
		}
		want := append([]int(nil), vals...)
		sort.Ints(want)
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s did not panic", what)
	}
}

// TestHeapZeroItemSlab: zero Items embedded by value in a slab, with only
// Value set, push, fix and remove through &slab[i] like NewItem handles.
func TestHeapZeroItemSlab(t *testing.T) {
	h := intHeap()
	slab := make([]Item[int], 6)
	for i, v := range []int{40, 10, 50, 30, 20, 60} {
		slab[i].Value = v
		if slab[i].InHeap() || slab[i].Owner() != nil {
			t.Fatalf("zero item %d reports a heap", i)
		}
		h.Push(&slab[i])
	}
	if h.Peek() != &slab[1] {
		t.Fatalf("Peek = %v, want the slab item holding 10", h.Peek().Value)
	}
	slab[5].Value = 5 // 60 -> 5 in place
	h.Fix(&slab[5])
	if h.Peek() != &slab[5] {
		t.Fatal("Fix did not float the mutated slab item to the top")
	}
	h.Remove(&slab[3]) // 30
	if slab[3].InHeap() || slab[3].Owner() != nil {
		t.Fatal("removed slab item still reports a heap")
	}
	if !h.Verify() {
		t.Fatal("heap invariant broken over slab items")
	}
	for _, want := range []int{5, 10, 20, 40, 50} {
		if got := h.Pop(); got.Value != want || got.InHeap() {
			t.Fatalf("pop = %d (InHeap %v), want %d", got.Value, got.InHeap(), want)
		}
	}
	// A removed slab item is a zero-state item again and can be re-pushed.
	h.Push(&slab[3])
	if h.Pop() != &slab[3] {
		t.Fatal("re-pushed slab item not popped")
	}
}

// TestHeapSlabRandomOperations drives one heap over a slab of by-value
// items through random push/fix/remove steps, checking Verify after every
// step and the popped order against a reference model at the end.
func TestHeapSlabRandomOperations(t *testing.T) {
	src := rng.New(77)
	h := intHeap()
	slab := make([]Item[int], 64)
	for step := 0; step < 20000; step++ {
		it := &slab[src.Intn(len(slab))]
		switch op := src.Intn(3); {
		case !it.InHeap():
			it.Value = src.Intn(1000)
			h.Push(it)
		case op == 0:
			it.Value = src.Intn(1000)
			h.Fix(it)
		default:
			h.Remove(it)
		}
		if !h.Verify() {
			t.Fatalf("step %d: heap invariant broken", step)
		}
	}
	var want []int
	for i := range slab {
		if slab[i].InHeap() {
			want = append(want, slab[i].Value)
		}
	}
	if h.Len() != len(want) {
		t.Fatalf("length mismatch: heap %d, slab %d", h.Len(), len(want))
	}
	sort.Ints(want)
	for i, w := range want {
		if got := h.Pop().Value; got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
}

func TestHeapSlabMisusePanics(t *testing.T) {
	t.Run("double push", func(t *testing.T) {
		h := intHeap()
		slab := make([]Item[int], 2)
		h.Push(&slab[0])
		defer expectPanic(t, "double Push of a slab item")
		h.Push(&slab[0])
	})
	t.Run("push into second heap", func(t *testing.T) {
		h1, h2 := intHeap(), intHeap()
		slab := make([]Item[int], 2)
		h1.Push(&slab[0])
		defer expectPanic(t, "Push of a slab item owned by another heap")
		h2.Push(&slab[0])
	})
	t.Run("foreign remove", func(t *testing.T) {
		h1, h2 := intHeap(), intHeap()
		slab := make([]Item[int], 2)
		h1.Push(&slab[0])
		h2.Push(&slab[1])
		defer expectPanic(t, "Remove of a slab item from the wrong heap")
		h2.Remove(&slab[0])
	})
	t.Run("foreign fix", func(t *testing.T) {
		h1, h2 := intHeap(), intHeap()
		slab := make([]Item[int], 2)
		h1.Push(&slab[0])
		defer expectPanic(t, "Fix of a slab item in the wrong heap")
		h2.Fix(&slab[0])
	})
	t.Run("remove zero item", func(t *testing.T) {
		h := intHeap()
		slab := make([]Item[int], 1)
		defer expectPanic(t, "Remove of a zero slab item")
		h.Remove(&slab[0])
	})
}

// TestWalkerVisitsInOrder: a walk of a heap built by random pushes, removals
// and fixes visits every item exactly once, in the order repeated Pop would
// return them, leaves the heap untouched, and a Peek without a Visit does
// not advance. Walks longer than the walker's own buffer and a reused
// walker are included.
func TestWalkerVisitsInOrder(t *testing.T) {
	src := rng.New(7)
	var w Walker[int]
	for trial := 0; trial < 200; trial++ {
		h := intHeap()
		items := make([]*Item[int], 0, 400)
		for range src.Intn(400) {
			switch op := src.Intn(4); {
			case op < 2 || len(items) == 0:
				it := NewItem(src.Intn(50))
				h.Push(it)
				items = append(items, it)
			case op == 2:
				i := src.Intn(len(items))
				h.Remove(items[i])
				items = append(items[:i], items[i+1:]...)
			default:
				it := items[src.Intn(len(items))]
				it.Value = src.Intn(50)
				h.Fix(it)
			}
		}
		before := append([]*Item[int](nil), h.Items()...)
		w.Reset(h)
		var walked []int
		for it := w.Peek(); it != nil; it = w.Peek() {
			if again := w.Peek(); again != it {
				t.Fatalf("trial %d: a second Peek moved the walk", trial)
			}
			walked = append(walked, it.Value)
			w.Visit()
		}
		for i, it := range h.Items() {
			if it != before[i] {
				t.Fatalf("trial %d: the walk changed the heap", trial)
			}
		}
		var popped []int
		for it := h.Pop(); it != nil; it = h.Pop() {
			popped = append(popped, it.Value)
		}
		if len(walked) != len(popped) {
			t.Fatalf("trial %d: walked %d items, the heap held %d", trial, len(walked), len(popped))
		}
		for i := range walked {
			if walked[i] != popped[i] {
				t.Fatalf("trial %d: walk %v, pops %v", trial, walked, popped)
			}
		}
	}
}
