package txn

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
)

// randomDAG builds n transactions whose dependencies point at random earlier
// IDs, so dependency closures overlap and one transaction sits in several
// workflows. Deadlines, lengths and weights are drawn from small integer
// ranges so the head order's tie-breaks are exercised.
func randomDAG(t *testing.T, src *rng.Source, n int) *Set {
	t.Helper()
	txns := make([]*Transaction, n)
	for i := range txns {
		var deps []ID
		for _, d := range src.Perm(i) {
			if len(deps) == 3 {
				break
			}
			if src.Bool(0.3) {
				deps = append(deps, ID(d))
			}
		}
		tx := mk(i, 0, float64(src.IntRange(10, 20)), float64(src.IntRange(1, 4)), deps...)
		tx.Weight = float64(src.IntRange(1, 3))
		txns[i] = tx
	}
	s := mustSet(t, txns...)
	for _, tx := range s.Txns {
		tx.Remaining = float64(src.IntRange(1, int(tx.Length)))
	}
	return s
}

// oraclePending is the brute-force pending set: the members not yet done.
func oraclePending(s *Set, wf *Workflow, done []bool) []*Transaction {
	var out []*Transaction
	for _, id := range wf.Members {
		if !done[id] {
			out = append(out, s.ByID(id))
		}
	}
	return out
}

// oracleRep is Definition 9 over the given members, skipping exclude unless
// it is the only one.
func oracleRep(pending []*Transaction, exclude ID) Representative {
	rep := Representative{Deadline: math.Inf(1), Remaining: math.Inf(1), Weight: math.Inf(-1)}
	found := false
	for _, tx := range pending {
		if tx.ID == exclude {
			continue
		}
		found = true
		rep.Deadline = math.Min(rep.Deadline, tx.Deadline)
		rep.Remaining = math.Min(rep.Remaining, tx.Remaining)
		rep.Weight = math.Max(rep.Weight, tx.Weight)
	}
	if !found {
		return oracleRep(pending, -1)
	}
	return rep
}

// oracleHead scans the ready pending members in ID order for the earliest
// deadline, then highest density; the first such member has the lowest ID.
func oracleHead(pending []*Transaction, ready func(*Transaction) bool) *Transaction {
	var best *Transaction
	for _, tx := range pending {
		if !ready(tx) {
			continue
		}
		if best == nil || tx.Deadline < best.Deadline ||
			(tx.Deadline == best.Deadline && tx.Weight/tx.Remaining > best.Weight/best.Remaining) {
			best = tx
		}
	}
	return best
}

// TestWorkflowPendingMatchesOracle completes the transactions of random
// shared-node DAGs in random orders and checks every pending-set query of
// every workflow against a brute-force oracle over Members after each step.
func TestWorkflowPendingMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		s := randomDAG(t, src, 40)
		wfs := BuildWorkflows(s)
		shared := false
		seen := make([]int, s.Len())
		for _, wf := range wfs {
			for _, id := range wf.Members {
				seen[id]++
				shared = shared || seen[id] > 1
			}
		}
		if !shared {
			t.Fatalf("seed %d: no transaction belongs to two workflows", seed)
		}

		done := make([]bool, s.Len())
		check := func(step int) {
			t.Helper()
			readySet := make([]bool, s.Len())
			for i := range readySet {
				readySet[i] = src.Bool(0.5)
			}
			ready := func(tx *Transaction) bool { return readySet[tx.ID] }
			for _, wf := range wfs {
				pending := oraclePending(s, wf, done)
				var ids []ID
				for _, tx := range pending {
					ids = append(ids, tx.ID)
				}
				if got := wf.PendingIDs(); !slices.Equal(got, ids) {
					t.Fatalf("seed %d step %d wf %d: PendingIDs %v, oracle %v", seed, step, wf.ID, got, ids)
				}
				if wf.Pending() != len(pending) || wf.Done() != (len(pending) == 0) {
					t.Fatalf("seed %d step %d wf %d: Pending %d Done %v, oracle %d", seed, step, wf.ID, wf.Pending(), wf.Done(), len(pending))
				}
				for _, id := range wf.Members {
					if wf.Contains(id) == done[id] {
						t.Fatalf("seed %d step %d wf %d: Contains(%d) = %v with done %v", seed, step, wf.ID, id, wf.Contains(id), done[id])
					}
				}
				if got, want := wf.Head(ready), oracleHead(pending, ready); got != want {
					t.Fatalf("seed %d step %d wf %d: Head %v, oracle %v", seed, step, wf.ID, got, want)
				}
				if len(pending) == 0 {
					continue
				}
				if got, want := wf.Representative(), oracleRep(pending, -1); got != want {
					t.Fatalf("seed %d step %d wf %d: Representative %+v, oracle %+v", seed, step, wf.ID, got, want)
				}
				exclude := pending[src.Intn(len(pending))].ID
				if got, want := wf.RepresentativeExcluding(exclude), oracleRep(pending, exclude); got != want {
					t.Fatalf("seed %d step %d wf %d: RepresentativeExcluding(%d) %+v, oracle %+v", seed, step, wf.ID, exclude, got, want)
				}
			}
		}

		check(-1)
		for step, i := range src.Perm(s.Len()) {
			id := ID(i)
			for _, wf := range wfs {
				member := slices.Contains(wf.Members, id)
				if got := wf.Complete(id); got != member {
					t.Fatalf("seed %d step %d wf %d: Complete(%d) = %v, member %v", seed, step, wf.ID, id, got, member)
				}
				if wf.Complete(id) {
					t.Fatalf("seed %d step %d wf %d: second Complete(%d) reported a pending member", seed, step, wf.ID, id)
				}
			}
			done[id] = true
			check(step)
		}

		for _, wf := range wfs {
			wf.Reset(s)
			if got := wf.PendingIDs(); !slices.Equal(got, wf.Members) {
				t.Fatalf("seed %d wf %d: after Reset pending %v, members %v", seed, wf.ID, got, wf.Members)
			}
		}
	}
}

// TestBuildWorkflowsIndependentEqualsSingleton: on a set without
// dependencies the two groupings are the same workflows, field for field.
func TestBuildWorkflowsIndependentEqualsSingleton(t *testing.T) {
	src := rng.New(5)
	txns := make([]*Transaction, 50)
	for i := range txns {
		txns[i] = mk(i, float64(i), float64(i+src.IntRange(5, 30)), float64(src.IntRange(1, 5)))
	}
	s := mustSet(t, txns...)
	built, single := BuildWorkflows(s), SingletonWorkflows(s)
	if len(built) != len(single) {
		t.Fatalf("BuildWorkflows made %d workflows, SingletonWorkflows %d", len(built), len(single))
	}
	for i := range built {
		if !reflect.DeepEqual(*built[i], *single[i]) {
			t.Fatalf("workflow %d: BuildWorkflows %+v, SingletonWorkflows %+v", i, *built[i], *single[i])
		}
	}
}

// TestBuildWorkflowsMatchesClosure: the carved members of every workflow are
// its root's sorted dependency closure, and carved slices cannot grow into a
// neighbour's storage.
func TestBuildWorkflowsMatchesClosure(t *testing.T) {
	s := randomDAG(t, rng.New(9), 60)
	wfs := BuildWorkflows(s)
	roots := s.Roots()
	if len(wfs) != len(roots) {
		t.Fatalf("%d workflows for %d roots", len(wfs), len(roots))
	}
	for i, wf := range wfs {
		if wf.ID != i || wf.Root != roots[i] {
			t.Fatalf("workflow %d: ID %d root %d, want root %d", i, wf.ID, wf.Root, roots[i])
		}
		if want := s.Closure(wf.Root); !slices.Equal(wf.Members, want) {
			t.Fatalf("workflow %d: members %v, closure %v", i, wf.Members, want)
		}
		if cap(wf.Members) != len(wf.Members) {
			t.Fatalf("workflow %d: members cap %d exceeds len %d", i, cap(wf.Members), len(wf.Members))
		}
	}
}

// TestWorkflowResetReusesStorage: Reset refills the pending set in place.
func TestWorkflowResetReusesStorage(t *testing.T) {
	s := randomDAG(t, rng.New(3), 30)
	wfs := BuildWorkflows(s)
	wf := wfs[len(wfs)-1]
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range wf.Members {
			wf.Complete(id)
		}
		wf.Reset(s)
	})
	if allocs != 0 {
		t.Fatalf("Complete+Reset allocated %v times per run, want 0", allocs)
	}
}
