package txn

import (
	"runtime"
	"testing"
)

// sizedSet builds n transactions at unit spacing; with chained set, each
// transaction after the first depends on its predecessor.
func sizedSet(t *testing.T, n int, chained bool) *Set {
	t.Helper()
	txns := make([]*Transaction, n)
	for i := range txns {
		txns[i] = &Transaction{ID: ID(i), Arrival: float64(i), Deadline: float64(i) + 10, Length: 1, Weight: 1}
		if chained && i > 0 {
			txns[i].Deps = []ID{ID(i - 1)}
		}
	}
	set, err := NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSetCloneAllocs pins Clone to a constant number of allocations,
// whatever the set's size: the records come from one slab and the
// dependency lists, forward and reverse, from one slab each. Each bound
// leaves one allocation of slack and holds at both sizes; one allocation
// per transaction would add thousands.
func TestSetCloneAllocs(t *testing.T) {
	// The process's first collection starts the GC's mark-worker
	// goroutines, whose allocations would be counted against whichever
	// measurement it falls in; collect once before measuring.
	runtime.GC()
	for _, tc := range []struct {
		name    string
		chained bool
		max     float64
	}{
		// Measured 3: the Set, its pointer table and the record slab.
		{"independent", false, 4},
		// Measured 6: plus the Deps slab, the reverse-edge table and its
		// slab.
		{"chained", true, 7},
	} {
		for _, n := range []int{1_000, 10_000} {
			set := sizedSet(t, n, tc.chained)
			got := testing.AllocsPerRun(20, func() { set.Clone() })
			t.Logf("%s n=%d: %v allocations", tc.name, n, got)
			if got > tc.max {
				t.Errorf("%s n=%d: Clone makes %v allocations, want <= %v", tc.name, n, got, tc.max)
			}
		}
	}
}
