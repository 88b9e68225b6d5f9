package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
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

func mustSet(t *testing.T, txns ...*txn.Transaction) *txn.Set {
	t.Helper()
	s, err := txn.NewSet(txns)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestRunSingleTransaction(t *testing.T) {
	set := mustSet(t, mk(0, 2, 10, 5))
	sum, err := New(Config{}).Run(set, sched.NewEDF())
	if err != nil {
		t.Fatal(err)
	}
	tx := set.ByID(0)
	if !tx.Finished || tx.FinishTime != 7 {
		t.Fatalf("finish = %v, want 7 (arrival 2 + length 5)", tx.FinishTime)
	}
	if sum.AvgTardiness != 0 || sum.BusyTime != 5 || sum.Makespan != 7 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestRunIdlePeriods(t *testing.T) {
	// Two transactions separated by an idle gap.
	set := mustSet(t, mk(0, 0, 10, 2), mk(1, 10, 20, 3))
	rec := &trace.Recorder{}
	if _, err := New(Config{Recorder: rec}).Run(set, sched.NewFCFS()); err != nil {
		t.Fatal(err)
	}
	if set.ByID(0).FinishTime != 2 || set.ByID(1).FinishTime != 13 {
		t.Fatalf("finishes = %v, %v", set.ByID(0).FinishTime, set.ByID(1).FinishTime)
	}
	if err := rec.Validate(set); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptionUnderSRPT(t *testing.T) {
	// T0 (length 10) starts; T1 (length 2) arrives at t=4 and preempts.
	set := mustSet(t, mk(0, 0, 100, 10), mk(1, 4, 100, 2))
	rec := &trace.Recorder{}
	if _, err := New(Config{Recorder: rec}).Run(set, sched.NewSRPT()); err != nil {
		t.Fatal(err)
	}
	if set.ByID(1).FinishTime != 6 {
		t.Fatalf("short arrival finished at %v, want 6 (preempted the long one)", set.ByID(1).FinishTime)
	}
	if set.ByID(0).FinishTime != 12 {
		t.Fatalf("long transaction finished at %v, want 12", set.ByID(0).FinishTime)
	}
	if got := rec.Preemptions(set); got != 1 {
		t.Fatalf("preemptions = %d, want 1", got)
	}
	if err := rec.Validate(set); err != nil {
		t.Fatal(err)
	}
}

func TestNoPreemptionUnderFCFS(t *testing.T) {
	set := mustSet(t, mk(0, 0, 100, 10), mk(1, 4, 100, 2))
	rec := &trace.Recorder{}
	if _, err := New(Config{Recorder: rec}).Run(set, sched.NewFCFS()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Preemptions(set); got != 0 {
		t.Fatalf("FCFS preempted %d times", got)
	}
	if set.ByID(0).FinishTime != 10 || set.ByID(1).FinishTime != 12 {
		t.Fatalf("finishes = %v, %v", set.ByID(0).FinishTime, set.ByID(1).FinishTime)
	}
}

func TestArrivalExactlyAtCompletion(t *testing.T) {
	// T1 arrives exactly when T0 completes; no preemption slice, no idling.
	set := mustSet(t, mk(0, 0, 100, 5), mk(1, 5, 100, 3))
	rec := &trace.Recorder{}
	if _, err := New(Config{Recorder: rec}).Run(set, sched.NewSRPT()); err != nil {
		t.Fatal(err)
	}
	if set.ByID(1).FinishTime != 8 {
		t.Fatalf("T1 finished at %v, want 8", set.ByID(1).FinishTime)
	}
}

func TestSimultaneousArrivals(t *testing.T) {
	set := mustSet(t, mk(0, 1, 100, 4), mk(1, 1, 50, 4), mk(2, 1, 10, 4))
	if _, err := New(Config{}).Run(set, sched.NewEDF()); err != nil {
		t.Fatal(err)
	}
	if set.ByID(2).FinishTime != 5 || set.ByID(1).FinishTime != 9 || set.ByID(0).FinishTime != 13 {
		t.Fatalf("EDF order wrong: %v %v %v",
			set.ByID(2).FinishTime, set.ByID(1).FinishTime, set.ByID(0).FinishTime)
	}
}

func TestDependenciesAcrossArrivals(t *testing.T) {
	// Dependent arrives before its dependency: must wait for both arrival
	// and completion of the dependency.
	set := mustSet(t, mk(0, 8, 100, 2), mk(1, 0, 100, 3, 0))
	rec := &trace.Recorder{}
	if _, err := New(Config{Recorder: rec}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	if set.ByID(1).FinishTime != 13 {
		t.Fatalf("dependent finished at %v, want 13 (dep arrives 8, runs 2, then 3)", set.ByID(1).FinishTime)
	}
	if err := rec.Validate(set); err != nil {
		t.Fatal(err)
	}
}

func TestBusyTimeEqualsTotalWork(t *testing.T) {
	set := mustSet(t,
		mk(0, 0, 30, 7),
		mk(1, 3, 9, 2),
		mk(2, 5, 40, 4),
	)
	sum, err := New(Config{}).Run(set, core.New())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.BusyTime-13) > 1e-9 {
		t.Fatalf("busy time = %v, want 13 (total work)", sum.BusyTime)
	}
}

// livelockScheduler always returns nil from Next even though work is
// pending; with no future arrivals, Run must detect the deadlock.
type livelockScheduler struct{}

func (l *livelockScheduler) Name() string                                 { return "livelock" }
func (l *livelockScheduler) Init(*txn.Set)                                {}
func (l *livelockScheduler) OnArrival(float64, *txn.Transaction)          {}
func (l *livelockScheduler) Next(float64) *txn.Transaction                { return nil }
func (l *livelockScheduler) OnPreempt(float64, *txn.Transaction)          {}
func (l *livelockScheduler) OnCompletion(now float64, t *txn.Transaction) {}

func TestReplayAcrossPolicies(t *testing.T) {
	// The same Set must be reusable: ResetAll inside Run restores state.
	set := mustSet(t, mk(0, 0, 5, 4), mk(1, 1, 4, 2))
	s1, err := New(Config{}).Run(set, sched.NewEDF())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{}).Run(set, sched.NewEDF())
	if err != nil {
		t.Fatal(err)
	}
	if s1.AvgTardiness != s2.AvgTardiness || s1.Makespan != s2.Makespan {
		t.Fatalf("replay differs: %+v vs %+v", s1, s2)
	}
}

func TestMustRunPanicsOnError(t *testing.T) {
	set := mustSet(t, mk(0, 0, 10, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic on scheduler error")
		}
	}()
	New(Config{}).MustRun(set, &livelockScheduler{})
}

func TestRunEmptySet(t *testing.T) {
	set := mustSet(t)
	sum, err := New(Config{}).Run(set, sched.NewEDF())
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}
