package txn

import (
	"strings"
	"testing"
	"testing/quick"
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

// TestSetFactsFollowValidate: Independent and Keyed are recorded by
// Validate, so after a mutation they change only with a fresh Validate,
// which also finds a cycle the mutation made.
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
	s.Txns[1].Writes = []Key{3}
	facts(true, false) // not validated yet
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	facts(false, true)
	if got := s.Dependents[0]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("Dependents[0] = %v, want [2]", got)
	}

	s.Txns[0].Deps = []ID{2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate after closing a cycle: %v", err)
	}

	s.Txns[0].Deps, s.Txns[2].Deps, s.Txns[1].Writes = nil, nil, nil
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	facts(true, false)
	if c := s.Clone(); !c.Independent() || c.Keyed() {
		t.Fatal("Clone dropped the facts")
	}
}

// TestAssignKeys: AssignKeys installs the drawn sets, records Keyed from
// them alone, and rejects a set Validate would reject.
func TestAssignKeys(t *testing.T) {
	s := mustSet(t, mk(0, 0, 5, 1), mk(1, 0, 5, 1, 0))
	draw := func(reads, writes []Key) func(*Transaction) ([]Key, []Key) {
		return func(tx *Transaction) ([]Key, []Key) {
			if tx.ID == 1 {
				return reads, writes
			}
			return nil, nil
		}
	}
	if err := s.AssignKeys(draw([]Key{1, 4}, []Key{2})); err != nil {
		t.Fatal(err)
	}
	if !s.Keyed() || s.Independent() || len(s.Txns[1].Reads) != 2 || len(s.Txns[1].Writes) != 1 {
		t.Fatalf("after AssignKeys: Keyed %v, Independent %v, txn 1 %v/%v", s.Keyed(), s.Independent(), s.Txns[1].Reads, s.Txns[1].Writes)
	}
	if err := s.Validate(); err != nil || !s.Keyed() {
		t.Fatalf("Validate after AssignKeys: %v, Keyed %v", err, s.Keyed())
	}
	for _, bad := range [][2][]Key{{{4, 1}, nil}, {nil, {2, 2}}, {{-1}, nil}} {
		if err := s.AssignKeys(draw(bad[0], bad[1])); err == nil {
			t.Errorf("AssignKeys accepted reads %v, writes %v", bad[0], bad[1])
		}
	}
	if err := s.AssignKeys(draw(nil, nil)); err != nil || s.Keyed() {
		t.Fatalf("AssignKeys of empty sets: %v, Keyed %v", err, s.Keyed())
	}
}

func TestDependentsIndex(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1, 0),
		mk(3, 0, 10, 1, 1, 2),
	)
	if got := s.Dependents[0]; len(got) != 2 {
		t.Fatalf("dependents of 0 = %v", got)
	}
	if got := s.Dependents[3]; len(got) != 0 {
		t.Fatalf("dependents of 3 = %v", got)
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
