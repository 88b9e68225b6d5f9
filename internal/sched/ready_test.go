package sched

import (
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/txn"
)

// randomDAG draws a dependency graph over n transactions: a random
// topological order in which each transaction depends on up to four earlier
// ones, so joins of several dependencies are common. With diamond, the first
// four transactions of the order form a diamond (a; b and c on a; d on b
// and c).
func randomDAG(t *testing.T, r *rng.Source, n int, diamond bool) *txn.Set {
	t.Helper()
	order := r.Perm(n)
	txns := make([]*txn.Transaction, n)
	for i := range txns {
		txns[i] = mk(i, 0, 10, 1)
	}
	for j := 1; j < n; j++ {
		var deps []txn.ID
		for i := range j {
			if r.Bool(min(0.6, 2/float64(j))) && len(deps) < 4 {
				deps = append(deps, txn.ID(order[i]))
			}
		}
		txns[order[j]].Deps = deps
	}
	if diamond && n >= 4 {
		a, b, c, d := txn.ID(order[0]), txn.ID(order[1]), txn.ID(order[2]), order[3]
		txns[b].Deps, txns[c].Deps, txns[d].Deps = []txn.ID{a}, []txn.ID{a}, []txn.ID{b, c}
	}
	return mustSet(t, txns...)
}

// TestReadyTrackerProperty checks the tracker against the definition of
// readiness — arrived, not finished, and every dependency finished — after
// every operation of random interleavings of Arrive and Complete over
// random DAGs. Any unarrived transaction may arrive, dependencies finished
// or not; only a ready one completes, as under a scheduler.
func TestReadyTrackerProperty(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		set := randomDAG(t, r, r.IntRange(1, 24), seed%2 == 0)
		n := set.Len()
		arrived, finished := make([]bool, n), make([]bool, n)
		ready := func(tx *txn.Transaction) bool {
			if !arrived[tx.ID] || finished[tx.ID] {
				return false
			}
			for _, d := range tx.Deps {
				if !finished[d] {
					return false
				}
			}
			return true
		}
		rt := NewReadyTracker(set)
		for step := 0; ; step++ {
			for _, tx := range set.Txns {
				if rt.Ready(tx) != ready(tx) {
					t.Fatalf("seed %d step %d: T%d ready = %v, want %v", seed, step, tx.ID, rt.Ready(tx), ready(tx))
				}
			}
			var ops []*txn.Transaction // an unarrived one arrives, a ready one completes
			for _, tx := range set.Txns {
				if !arrived[tx.ID] || ready(tx) {
					ops = append(ops, tx)
				}
			}
			if len(ops) == 0 {
				break
			}
			tx := ops[r.Intn(len(ops))]
			if !arrived[tx.ID] {
				arrived[tx.ID] = true
				if got := rt.Arrive(tx); got != ready(tx) {
					t.Fatalf("seed %d step %d: Arrive(T%d) = %v, want %v", seed, step, tx.ID, got, ready(tx))
				}
				continue
			}
			var want []*txn.Transaction
			before := make([]bool, n)
			for _, d := range set.Dependents[tx.ID] {
				before[d] = ready(set.ByID(d))
			}
			finished[tx.ID] = true
			for _, d := range set.Dependents[tx.ID] {
				if dt := set.ByID(d); !before[d] && ready(dt) {
					want = append(want, dt)
				}
			}
			if got := rt.Complete(tx); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Complete(T%d) = %v, want %v", seed, step, tx.ID, got, want)
			}
		}
		if slices.Contains(finished, false) {
			t.Fatalf("seed %d: the interleaving stalled with %v finished", seed, finished)
		}
	}
}
