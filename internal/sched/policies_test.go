package sched

import (
	"strings"
	"testing"

	"repro/internal/txn"
)

// drive simulates the check-out protocol by hand over a static ready pool:
// it arrives all transactions at t=0 and returns the completion order when
// each chosen transaction runs to completion (no preemption).
func drive(t *testing.T, s Scheduler, set *txn.Set) []txn.ID {
	t.Helper()
	set.ResetAll()
	s.Init(set)
	now := 0.0
	for _, tx := range set.Txns {
		s.OnArrival(now, tx)
	}
	var order []txn.ID
	for len(order) < set.Len() {
		tx := s.Next(now)
		if tx == nil {
			t.Fatalf("%s: Next returned nil with %d remaining", s.Name(), set.Len()-len(order))
		}
		now += tx.Remaining
		tx.Remaining = 0
		tx.Finished = true
		tx.FinishTime = now
		order = append(order, tx.ID)
		s.OnCompletion(now, tx)
	}
	return order
}

func wantOrder(t *testing.T, s Scheduler, set *txn.Set, want ...txn.ID) {
	t.Helper()
	got := drive(t, s, set)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: order = %v, want %v", s.Name(), got, want)
		}
	}
}

func TestFCFSOrder(t *testing.T) {
	set := mustSet(t,
		mk(0, 3, 100, 5),
		mk(1, 1, 100, 5),
		mk(2, 2, 100, 5),
	)
	wantOrder(t, NewFCFS(), set, 1, 2, 0)
}

func TestEDFOrder(t *testing.T) {
	set := mustSet(t,
		mk(0, 0, 30, 5),
		mk(1, 0, 10, 5),
		mk(2, 0, 20, 5),
	)
	wantOrder(t, NewEDF(), set, 1, 2, 0)
}

func TestSRPTOrder(t *testing.T) {
	set := mustSet(t,
		mk(0, 0, 100, 7),
		mk(1, 0, 100, 2),
		mk(2, 0, 100, 4),
	)
	wantOrder(t, NewSRPT(), set, 1, 2, 0)
}

func TestLSOrder(t *testing.T) {
	// Slack = d - r at a common instant: T0: 30-5=25, T1: 12-10=2, T2: 20-4=16.
	set := mustSet(t,
		mk(0, 0, 30, 5),
		mk(1, 0, 12, 10),
		mk(2, 0, 20, 4),
	)
	wantOrder(t, NewLS(), set, 1, 2, 0)
}

func TestHDFOrder(t *testing.T) {
	a := mk(0, 0, 100, 10) // density 0.1
	b := mk(1, 0, 100, 2)  // density 0.5
	c := mk(2, 0, 100, 4)  // density 2.0
	c.Weight = 8
	set := mustSet(t, a, b, c)
	wantOrder(t, NewHDF(), set, 2, 1, 0)
}

func TestHDFReducesToSRPTUnderUnitWeights(t *testing.T) {
	set1 := mustSet(t, mk(0, 0, 100, 7), mk(1, 0, 100, 2), mk(2, 0, 100, 4))
	set2 := mustSet(t, mk(0, 0, 100, 7), mk(1, 0, 100, 2), mk(2, 0, 100, 4))
	hdf := drive(t, NewHDF(), set1)
	srpt := drive(t, NewSRPT(), set2)
	for i := range hdf {
		if hdf[i] != srpt[i] {
			t.Fatalf("HDF %v != SRPT %v under unit weights", hdf, srpt)
		}
	}
}

func TestHVFOrder(t *testing.T) {
	a := mk(0, 0, 1, 5)
	b := mk(1, 0, 100, 5)
	b.Weight = 10
	c := mk(2, 0, 50, 5)
	c.Weight = 5
	set := mustSet(t, a, b, c)
	wantOrder(t, NewHVF(), set, 1, 2, 0)
}

// TestMIXOrder: the blend 0.5 orders by (d_i - w_i)/2, which here is
// neither EDF's order (0, 2, 1) nor HVF's (1, 0, 2).
func TestMIXOrder(t *testing.T) {
	a := mk(0, 0, 10, 5) // key 4
	a.Weight = 2
	b := mk(1, 0, 20, 5) // key 5
	b.Weight = 10
	c := mk(2, 0, 12, 5) // key 5.5
	set := mustSet(t, a, b, c)
	wantOrder(t, NewMIX(), set, 0, 1, 2)
}

func TestPriorityPolicyHonorsDependencies(t *testing.T) {
	// T1 has the earliest deadline but depends on T0; EDF must not emit it
	// before T0 completes.
	set := mustSet(t,
		mk(0, 0, 50, 5),
		mk(1, 0, 10, 5, 0),
		mk(2, 0, 20, 5),
	)
	wantOrder(t, NewEDF(), set, 2, 0, 1)
}

func TestPriorityPolicyPreemptReinsert(t *testing.T) {
	set := mustSet(t, mk(0, 0, 100, 10), mk(1, 0, 100, 2))
	s := NewSRPT()
	s.Init(set)
	s.OnArrival(0, set.ByID(0))
	first := s.Next(0)
	if first.ID != 0 {
		t.Fatalf("first = %v", first)
	}
	// T0 runs 3 units, then T1 arrives and preempts.
	first.Remaining -= 3
	s.OnPreempt(3, first)
	s.OnArrival(3, set.ByID(1))
	second := s.Next(3)
	if second.ID != 1 {
		t.Fatalf("SRPT chose %v over the shorter arrival", second)
	}
	// After T1 completes, the partially-run T0 resumes with 7 remaining.
	second.Remaining = 0
	second.Finished = true
	second.FinishTime = 5
	s.OnCompletion(5, second)
	third := s.Next(5)
	if third.ID != 0 || third.Remaining != 7 {
		t.Fatalf("resume = %v (remaining %v)", third, third.Remaining)
	}
}

func TestNextOnEmptyReturnsNil(t *testing.T) {
	set := mustSet(t, mk(0, 5, 10, 1))
	s := NewEDF()
	s.Init(set)
	if s.Next(0) != nil {
		t.Fatal("Next before any arrival returned a transaction")
	}
}

func TestNewPriorityPolicyNilComparatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil comparator accepted")
		}
	}()
	NewPriorityPolicy("X", nil)
}

// The three tests below keep the names they had when the ready queue could
// also be a treap; they now exercise the heap-backed queue of a policy built
// directly from NewPriorityPolicy with a custom comparator.

// edfLess mirrors NewEDF's comparator.
func edfLess(a, b *txn.Transaction) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}

func TestTreapBackendPopEmpty(t *testing.T) {
	// Next on a queue that has been drained returns nil, and the queue
	// accepts new work afterwards.
	set := mustSet(t, mk(0, 0, 10, 1), mk(1, 5, 20, 1))
	s := NewPriorityPolicy("EDF-custom", edfLess)
	s.Init(set)
	s.OnArrival(0, set.ByID(0))
	if got := s.Next(0); got == nil || got.ID != 0 {
		t.Fatalf("first = %v, want T0", got)
	}
	if s.Next(0) != nil {
		t.Fatal("drained queue returned a transaction")
	}
	s.OnArrival(5, set.ByID(1))
	if got := s.Next(5); got == nil || got.ID != 1 {
		t.Fatalf("after refill = %v, want T1", got)
	}
}

func TestTreapBackendPreemptReinsert(t *testing.T) {
	set := mustSet(t, mk(0, 0, 100, 10), mk(1, 0, 50, 2))
	s := NewPriorityPolicy("EDF-custom", edfLess)
	s.Init(set)
	s.OnArrival(0, set.ByID(0))
	// Only T0 has arrived, so it must be first despite the later deadline.
	first := s.Next(0)
	if first.ID != 0 {
		t.Fatalf("first = T%d, want T0", first.ID)
	}
	first.Remaining -= 4
	s.OnPreempt(4, first)
	s.OnArrival(4, set.ByID(1))
	second := s.Next(4)
	if second.ID != 1 {
		t.Fatalf("second = T%d, want T1 (earlier deadline)", second.ID)
	}
	third := s.Next(4)
	if third.ID != 0 || third.Remaining != 6 {
		t.Fatalf("third = %v (remaining %v), want T0 with 6", third, third.Remaining)
	}
}

func TestBackendNilComparatorPanics(t *testing.T) {
	// The nil comparator is rejected by the constructor itself, not later
	// by the heap that Init builds.
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "NewPriorityPolicy") {
			t.Fatalf("panic = %v, want one naming NewPriorityPolicy", r)
		}
	}()
	NewPriorityPolicy("X", nil)
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Scheduler{
		"FCFS": NewFCFS(),
		"EDF":  NewEDF(),
		"SRPT": NewSRPT(),
		"LS":   NewLS(),
		"HDF":  NewHDF(),
		"HVF":  NewHVF(),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
	}
	if NewMIX().Name() != "MIX(0.50)" {
		t.Errorf("MIX name = %q", NewMIX().Name())
	}
}

// TestExample1Figure2 reproduces the paper's Example 1 (Figure 2): a
// two-transaction scenario where EDF beats SRPT, and another where SRPT
// beats EDF, computed by running each policy and comparing total tardiness.
func TestExample1Figure2(t *testing.T) {
	tardiness := func(s Scheduler, set *txn.Set) float64 {
		drive(t, s, set)
		var sum float64
		for _, tx := range set.Txns {
			sum += tx.Tardiness()
		}
		return sum
	}

	// Case (a): T1 long with imminent deadline, T2 short with distant
	// deadline and enough slack to wait. EDF (T1 first) keeps both on time
	// where SRPT (T2 first) makes T1 tardy.
	caseA := func() *txn.Set {
		return mustSet(t,
			mk(0, 0, 10, 10), // T1: needs to start immediately
			mk(1, 0, 13, 3),  // T2: can wait for T1
		)
	}
	edfA := tardiness(NewEDF(), caseA())
	srptA := tardiness(NewSRPT(), caseA())
	if !(edfA < srptA) {
		t.Fatalf("case (a): EDF %v should beat SRPT %v", edfA, srptA)
	}

	// Case (b): T1's deadline has effectively passed (cannot be met), T2 is
	// short and could still make it. EDF runs the lost cause first and
	// both miss; SRPT saves T2.
	caseB := func() *txn.Set {
		return mustSet(t,
			mk(0, 0, 1, 10), // T1: hopeless deadline
			mk(1, 0, 4, 3),  // T2: feasible if run now
		)
	}
	edfB := tardiness(NewEDF(), caseB())
	srptB := tardiness(NewSRPT(), caseB())
	if !(srptB < edfB) {
		t.Fatalf("case (b): SRPT %v should beat EDF %v", srptB, edfB)
	}
}
