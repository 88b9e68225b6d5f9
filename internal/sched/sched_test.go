package sched

import (
	"testing"

	"repro/internal/txn"
)

func mk(id int, arrival, deadline, length float64, deps ...txn.ID) *txn.Transaction {
	return &txn.Transaction{
		ID:       txn.ID(id),
		Arrival:  arrival,
		Deadline: deadline,
		Length:   length,
		Weight:   1,
		Deps:     deps,
	}
}

// newTracker returns a tracker Reset over set.
func newTracker(set *txn.Set) *ReadyTracker {
	rt := new(ReadyTracker)
	rt.Reset(set)
	return rt
}

func mustSet(t *testing.T, txns ...*txn.Transaction) *txn.Set {
	t.Helper()
	for _, tx := range txns {
		tx.Reset()
	}
	s, err := txn.NewSet(txns)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestReadyTrackerIndependent(t *testing.T) {
	s := mustSet(t, mk(0, 0, 10, 1), mk(1, 0, 10, 1))
	rt := newTracker(s)
	if rt.Ready(s.ByID(0)) {
		t.Fatal("unarrived transaction reported ready")
	}
	if !rt.Arrive(s.ByID(0)) {
		t.Fatal("independent transaction not ready on arrival")
	}
	if !rt.Ready(s.ByID(0)) {
		t.Fatal("Ready disagrees with Arrive")
	}
}

func TestReadyTrackerDependencyChain(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1, 1),
	)
	rt := newTracker(s)
	for i := 0; i < 3; i++ {
		rt.Arrive(s.ByID(txn.ID(i)))
	}
	if rt.Ready(s.ByID(1)) || rt.Ready(s.ByID(2)) {
		t.Fatal("dependent transactions ready before dependency completion")
	}
	newly := rt.Complete(s.ByID(0))
	if len(newly) != 1 || newly[0].ID != 1 {
		t.Fatalf("newly ready after T0 = %v, want [T1]", newly)
	}
	if rt.Ready(s.ByID(2)) {
		t.Fatal("T2 ready before T1 finished")
	}
	newly = rt.Complete(s.ByID(1))
	if len(newly) != 1 || newly[0].ID != 2 {
		t.Fatalf("newly ready after T1 = %v, want [T2]", newly)
	}
}

func TestReadyTrackerLateArrival(t *testing.T) {
	// Dependency finishes before the dependent arrives: the dependent must
	// become ready at arrival, not at the (earlier) completion.
	s := mustSet(t, mk(0, 0, 10, 1), mk(1, 5, 15, 1, 0))
	rt := newTracker(s)
	rt.Arrive(s.ByID(0))
	if newly := rt.Complete(s.ByID(0)); len(newly) != 0 {
		t.Fatalf("unarrived dependent surfaced at completion: %v", newly)
	}
	if !rt.Arrive(s.ByID(1)) {
		t.Fatal("dependent with finished deps not ready on arrival")
	}
}

func TestReadyTrackerMultipleDeps(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1),
		mk(2, 0, 10, 1, 0, 1),
	)
	rt := newTracker(s)
	for i := 0; i < 3; i++ {
		rt.Arrive(s.ByID(txn.ID(i)))
	}
	if newly := rt.Complete(s.ByID(0)); len(newly) != 0 {
		t.Fatal("T2 surfaced with one of two deps outstanding")
	}
	if newly := rt.Complete(s.ByID(1)); len(newly) != 1 || newly[0].ID != 2 {
		t.Fatal("T2 did not surface when its last dep finished")
	}
}

func TestReadyTrackerFinished(t *testing.T) {
	s := mustSet(t, mk(0, 0, 10, 1))
	rt := newTracker(s)
	rt.Arrive(s.ByID(0))
	rt.Complete(s.ByID(0))
	if rt.Ready(s.ByID(0)) {
		t.Fatal("finished transaction reported ready")
	}
}

// unwrapOnly forwards a scheduler and unwraps to it, with no Decide of its
// own.
type unwrapOnly struct{ Scheduler }

func (u unwrapOnly) Unwrap() Scheduler { return u.Scheduler }

// decideNone is a Decider that always declines.
type decideNone struct{ Scheduler }

func (decideNone) Decide(_ float64, _ []*txn.Transaction, _ int, _ Acceptor, picks []*txn.Transaction) ([]*txn.Transaction, bool) {
	return picks, false
}

// TestDeciderOf: the Decider is found on the scheduler itself or down its
// Unwrap chain; a scheduler without one, or a wrapper that hides its inner
// policy, has none.
func TestDeciderOf(t *testing.T) {
	d := &decideNone{NewEDF()}
	if DeciderOf(d) != Decider(d) {
		t.Fatal("a scheduler with Decide is its own Decider")
	}
	if DeciderOf(unwrapOnly{unwrapOnly{d}}) != Decider(d) {
		t.Fatal("the Decider was not found down the Unwrap chain")
	}
	if DeciderOf(NewEDF()) != nil || DeciderOf(unwrapOnly{NewAED(1)}) != nil {
		t.Fatal("the baseline policies and AED have no Decider")
	}
	if DeciderOf(struct{ Scheduler }{d}) != nil {
		t.Fatal("a wrapper without Unwrap hides its policy's Decider")
	}
}
