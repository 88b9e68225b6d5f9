package txn

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// mk builds a minimal valid transaction for tests.
func mk(id int, arrival, deadline, length float64, deps ...ID) *Transaction {
	return &Transaction{
		ID:       ID(id),
		Arrival:  arrival,
		Deadline: deadline,
		Length:   length,
		Weight:   1,
		Deps:     deps,
	}
}

func mustSet(t *testing.T, txns ...*Transaction) *Set {
	t.Helper()
	for _, tx := range txns {
		tx.Remaining = tx.Length
	}
	s, err := NewSet(txns)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestSlack(t *testing.T) {
	tx := mk(0, 0, 20, 5)
	tx.Remaining = 5
	if got := tx.Slack(10); got != 5 {
		t.Fatalf("Slack(10) = %v, want 5", got)
	}
	if got := tx.Slack(16); got != -1 {
		t.Fatalf("Slack(16) = %v, want -1", got)
	}
}

func TestCanMeetDeadlineBoundary(t *testing.T) {
	tx := mk(0, 0, 10, 4)
	tx.Remaining = 4
	if !tx.CanMeetDeadline(6) {
		t.Fatal("t + r == d must still qualify for the EDF list (Definition 6 uses <=)")
	}
	if tx.CanMeetDeadline(6.0001) {
		t.Fatal("t + r > d must not qualify")
	}
}

func TestTardiness(t *testing.T) {
	tx := mk(0, 0, 10, 4)
	tx.Finished = true
	tx.FinishTime = 9
	if tx.Tardiness() != 0 {
		t.Fatal("on-time transaction has non-zero tardiness")
	}
	tx.FinishTime = 10
	if tx.Tardiness() != 0 {
		t.Fatal("finishing exactly at the deadline is not tardy (Definition 3)")
	}
	tx.FinishTime = 13.5
	if tx.Tardiness() != 3.5 {
		t.Fatalf("tardiness = %v, want 3.5", tx.Tardiness())
	}
	tx.Finished = false
	if tx.Tardiness() != 0 {
		t.Fatal("unfinished transaction must report zero tardiness")
	}
}

func TestDensity(t *testing.T) {
	tx := mk(0, 0, 10, 4)
	tx.Weight = 8
	tx.Remaining = 2
	if tx.Density() != 4 {
		t.Fatalf("density = %v, want 4", tx.Density())
	}
}

func TestDensityPanicsWhenDone(t *testing.T) {
	tx := mk(0, 0, 10, 4)
	tx.Remaining = 0
	defer func() {
		if recover() == nil {
			t.Fatal("Density with zero remaining did not panic")
		}
	}()
	tx.Density()
}

func TestReset(t *testing.T) {
	tx := mk(0, 0, 10, 4)
	tx.Remaining = 0.5
	tx.Started = true
	tx.Finished = true
	tx.FinishTime = 99
	tx.Reset()
	if tx.Remaining != 4 || tx.Started || tx.Finished || tx.FinishTime != 0 {
		t.Fatalf("Reset left state: %+v", tx)
	}
}

func TestStringMentionsID(t *testing.T) {
	tx := mk(3, 1, 2, 1)
	if !strings.Contains(tx.String(), "T3") {
		t.Fatalf("String() = %q", tx.String())
	}
}

func TestValidateRejectsBadWorkloads(t *testing.T) {
	cases := []struct {
		name string
		txns []*Transaction
	}{
		{"nil slot", []*Transaction{nil}},
		{"sparse ids", []*Transaction{mk(1, 0, 1, 1)}},
		{"zero length", []*Transaction{mk(0, 0, 1, 0)}},
		{"negative arrival", []*Transaction{mk(0, -1, 1, 1)}},
		{"deadline before arrival", []*Transaction{mk(0, 5, 4, 1)}},
		{"unknown dep", []*Transaction{mk(0, 0, 1, 1, 7)}},
		{"self dep", []*Transaction{mk(0, 0, 1, 1, 0)}},
		{"duplicate dep", []*Transaction{mk(0, 0, 2, 1), mk(1, 0, 2, 1, 0, 0)}},
		{"cycle", []*Transaction{mk(0, 0, 2, 1, 1), mk(1, 0, 2, 1, 0)}},
		{"zero weight", func() []*Transaction {
			tx := mk(0, 0, 1, 1)
			tx.Weight = 0
			return []*Transaction{tx}
		}()},
	}
	for _, c := range cases {
		if _, err := NewSet(c.txns); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// drawSets returns an AssignKeys draw that installs sets[i] — transaction
// i's {reads, writes} — and nothing past the end of sets.
func drawSets(sets ...[2][]Key) func(ID, []Key) ([]Key, int) {
	return func(id ID, keys []Key) ([]Key, int) {
		if int(id) >= len(sets) {
			return keys, 0
		}
		rw := sets[id]
		return append(append(keys, rw[1]...), rw[0]...), len(rw[1])
	}
}

// TestTransactionSize pins the record to the paper's fields plus the run
// state: key sets and reverse edges live on the Set, not in every
// transaction.
func TestTransactionSize(t *testing.T) {
	if got := unsafe.Sizeof(Transaction{}); got > 88 {
		t.Fatalf("unsafe.Sizeof(Transaction{}) = %d B, want <= 88", got)
	}
}

// TestSetFactsFollowValidate: Independent is recorded by Validate, so after
// a mutation it changes only with a fresh Validate, which also finds a
// cycle the mutation made; Keyed follows AssignKeys.
func TestSetFactsFollowValidate(t *testing.T) {
	s := mustSet(t, mk(0, 0, 5, 1), mk(1, 0, 5, 1), mk(2, 1, 5, 1))
	facts := func(indep, keyed bool) {
		t.Helper()
		if s.Independent() != indep || s.Keyed() != keyed {
			t.Fatalf("Independent %v, Keyed %v; want %v, %v", s.Independent(), s.Keyed(), indep, keyed)
		}
	}
	facts(true, false)

	s.Txns[2].Deps = []ID{0}
	facts(true, false) // not validated yet
	if err := s.AssignKeys(0, drawSets([2][]Key{}, [2][]Key{nil, {3}})); err != nil {
		t.Fatal(err)
	}
	facts(true, true)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	facts(false, true)
	if got := s.DependentsOf(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DependentsOf(0) = %v, want [2]", got)
	}

	s.Txns[0].Deps = []ID{2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate after closing a cycle: %v", err)
	}

	s.Txns[0].Deps, s.Txns[2].Deps = nil, nil
	if err := s.AssignKeys(0, drawSets()); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	facts(true, false)
	if c := s.Clone(); !c.Independent() || c.Keyed() {
		t.Fatal("Clone dropped the facts")
	}
}

// TestAssignKeys: AssignKeys installs the sets, records Keyed from them
// alone, rejects a set that is not sorted and duplicate-free or a write-set
// length the draw did not append, and keeps no storage for empty sets.
func TestAssignKeys(t *testing.T) {
	s := mustSet(t, mk(0, 0, 5, 1), mk(1, 0, 5, 1, 0))
	one := func(reads, writes []Key) func(ID, []Key) ([]Key, int) {
		return drawSets([2][]Key{}, [2][]Key{reads, writes})
	}
	if err := s.AssignKeys(0, one([]Key{1, 4}, []Key{2})); err != nil {
		t.Fatal(err)
	}
	if !s.Keyed() || s.Independent() || len(s.Reads(1)) != 2 || len(s.Writes(1)) != 1 || len(s.Reads(0))+len(s.Writes(0)) != 0 {
		t.Fatalf("after AssignKeys: Keyed %v, Independent %v, txn 1 %v/%v", s.Keyed(), s.Independent(), s.Reads(1), s.Writes(1))
	}
	if err := s.Validate(); err != nil || !s.Keyed() {
		t.Fatalf("Validate after AssignKeys: %v, Keyed %v", err, s.Keyed())
	}
	for _, bad := range [][2][]Key{{{4, 1}, nil}, {nil, {2, 2}}, {{-1}, nil}} {
		if err := s.AssignKeys(0, one(bad[0], bad[1])); err == nil {
			t.Errorf("AssignKeys accepted reads %v, writes %v", bad[0], bad[1])
		}
	}
	if got := s.Reads(1); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("a rejected AssignKeys changed the read set to %v", got)
	}
	for _, writes := range []int{-1, 2} {
		err := s.AssignKeys(0, func(id ID, keys []Key) ([]Key, int) { return append(keys, 5), writes })
		if err == nil {
			t.Errorf("AssignKeys accepted a write-set length of %d for 1 appended key", writes)
		}
	}
	if err := s.AssignKeys(4, one(nil, nil)); err != nil || s.Keyed() || s.keys != nil || s.bounds != nil {
		t.Fatalf("AssignKeys of empty sets: %v, Keyed %v, storage %v/%v", err, s.Keyed(), s.keys, s.bounds)
	}
	if s.Reads(1) != nil || s.Writes(0) != nil {
		t.Fatal("an unkeyed set returned key sets")
	}
}

// TestValidateRejectsStaleKeys: key sets installed for n transactions do
// not cover a set that has grown since.
func TestValidateRejectsStaleKeys(t *testing.T) {
	s := mustSet(t, mk(0, 0, 5, 1))
	if err := s.AssignKeys(0, drawSets([2][]Key{{1}, nil})); err != nil {
		t.Fatal(err)
	}
	s.Txns = append(s.Txns, mk(1, 0, 5, 1))
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted key sets covering 1 of 2 transactions")
	}
}

func TestDependentsIndex(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1, 0),
		mk(3, 0, 10, 1, 1, 2),
	)
	if got := s.DependentsOf(0); len(got) != 2 {
		t.Fatalf("dependents of 0 = %v", got)
	}
	if got := s.DependentsOf(3); len(got) != 0 {
		t.Fatalf("dependents of 3 = %v", got)
	}
}

// TestIndependentSetHoldsNoReverseEdges: a set without dependencies keeps
// no reverse-edge table, and validating it again after it gains a
// dependency builds the table; until then TopologicalOrder reads the new
// edge from Deps rather than trusting the stale Independent fact.
func TestIndependentSetHoldsNoReverseEdges(t *testing.T) {
	s := mustSet(t, mk(0, 0, 10, 1), mk(1, 0, 10, 1), mk(2, 0, 10, 1))
	if s.dependents != nil {
		t.Fatalf("independent set holds a reverse-edge table %v", s.dependents)
	}
	if got := s.DependentsOf(1); got != nil {
		t.Fatalf("DependentsOf on an independent set = %v, want nil", got)
	}
	if c := s.Clone(); c.dependents != nil {
		t.Fatal("Clone of an independent set built a reverse-edge table")
	}

	s.Txns[0].Deps = []ID{2}
	order, err := s.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if pos := slices.Index(order, 2); pos > slices.Index(order, 0) {
		t.Fatalf("TopologicalOrder %v puts 0 before its dependency 2", order)
	}
	s.Txns[2].Deps = []ID{0}
	if _, err := s.TopologicalOrder(); err == nil {
		t.Fatal("TopologicalOrder missed a cycle a stale Independent fact hides")
	}
	s.Txns[2].Deps = nil

	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Independent() || s.dependents == nil {
		t.Fatalf("after Validate: Independent %v, table %v", s.Independent(), s.dependents)
	}
	if got := s.DependentsOf(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DependentsOf(2) = %v, want [0]", got)
	}
}

func TestTopologicalOrder(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1, 2), // 0 depends on 2
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1),
	)
	order, err := s.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[ID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[2] < pos[0] && pos[0] < pos[1]) {
		t.Fatalf("topological order %v violates dependencies", order)
	}
}

func TestRoots(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1, 1),
		mk(3, 0, 10, 1), // independent singleton: also a root
	)
	roots := s.Roots()
	if len(roots) != 2 || roots[0] != 2 || roots[1] != 3 {
		t.Fatalf("roots = %v, want [2 3]", roots)
	}
}

func TestClosure(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1, 1, 4),
		mk(3, 0, 10, 1),
		mk(4, 0, 10, 1),
	)
	got := s.Closure(2)
	want := []ID{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("closure(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closure(2) = %v, want %v", got, want)
		}
	}
	if c := s.Closure(3); len(c) != 1 || c[0] != 3 {
		t.Fatalf("closure(3) = %v", c)
	}
}

func TestResetAll(t *testing.T) {
	s := mustSet(t, mk(0, 0, 10, 3), mk(1, 0, 10, 4))
	s.ByID(0).Finished = true
	s.ByID(1).Remaining = 1
	s.ResetAll()
	for _, tx := range s.Txns {
		if tx.Finished || tx.Remaining != tx.Length {
			t.Fatalf("ResetAll left %+v", tx)
		}
	}
}

// TestQuickSlackIdentity: slack decreases one-for-one with time for any
// transaction state.
func TestQuickSlackIdentity(t *testing.T) {
	f := func(d, r, t1, dt uint16) bool {
		tx := &Transaction{Deadline: float64(d), Remaining: float64(r)}
		now := float64(t1)
		delta := float64(dt)
		return tx.Slack(now)-tx.Slack(now+delta) == delta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickClosureContainsSelfAndDeps: for random chain workloads, every
// closure contains the root and all direct dependencies of every member.
func TestQuickClosureContainsSelfAndDeps(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%7) + 2
		txns := make([]*Transaction, n)
		for i := 0; i < n; i++ {
			var deps []ID
			if i > 0 {
				deps = []ID{ID(i - 1)}
			}
			txns[i] = mk(i, 0, 10, 1, deps...)
		}
		s, err := NewSet(txns)
		if err != nil {
			return false
		}
		closure := s.Closure(ID(n - 1))
		return len(closure) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
