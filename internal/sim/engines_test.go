package sim_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
)

// engines runs a set to completion under a scheduler through each engine
// built on the single-backend kernel. The executor takes cfg's fault plan
// and admission controller; the closed loop rejects both.
var engines = []struct {
	name string
	run  func(cfg sim.Config, set *txn.Set, s sched.Scheduler) error
}{
	{"sim", func(cfg sim.Config, set *txn.Set, s sched.Scheduler) error {
		_, err := sim.New(cfg).Run(set, s)
		return err
	}},
	{"executor", func(cfg sim.Config, set *txn.Set, s sched.Scheduler) error {
		ex := executor.New(s, set, executor.Options{
			Clock: executor.NewFakeClock(time.Unix(0, 0)), Faults: cfg.Faults, Admit: cfg.Admit,
		})
		_, err := ex.Run(context.Background())
		return err
	}},
	{"closed loop", func(cfg sim.Config, set *txn.Set, s sched.Scheduler) error {
		// One single-page session per transaction, requested at its
		// arrival time: the open-loop schedule.
		var sessions []txn.Session
		for _, t := range set.Txns {
			sessions = append(sessions, txn.Session{Pages: [][]txn.ID{{t.ID}}, ThinkTimes: []float64{t.Arrival}})
		}
		_, err := sim.New(cfg).RunClosedLoop(set, sessions, s)
		return err
	}},
}

func newSet(t *testing.T, arrivals ...float64) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, len(arrivals))
	for i, a := range arrivals {
		txns[i] = &txn.Transaction{ID: txn.ID(i), Arrival: a, Deadline: a + 10, Length: 1, Weight: 1}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// stuckScheduler always returns nil from Next even though work is pending.
type stuckScheduler struct{}

func (stuckScheduler) Name() string                           { return "stuck" }
func (stuckScheduler) Init(*txn.Set)                          {}
func (stuckScheduler) OnArrival(float64, *txn.Transaction)    {}
func (stuckScheduler) Next(float64) *txn.Transaction          { return nil }
func (stuckScheduler) OnPreempt(float64, *txn.Transaction)    {}
func (stuckScheduler) OnCompletion(float64, *txn.Transaction) {}

// firstScheduler always returns the same transaction — pinned at Init, or
// the first arrival — whether or not it has arrived or finished.
type firstScheduler struct {
	pin bool
	tx  *txn.Transaction
}

func (f *firstScheduler) Name() string { return "first" }
func (f *firstScheduler) Init(s *txn.Set) {
	if f.pin {
		f.tx = s.ByID(0)
	}
}
func (f *firstScheduler) OnArrival(_ float64, t *txn.Transaction) {
	if f.tx == nil {
		f.tx = t
	}
}
func (f *firstScheduler) Next(float64) *txn.Transaction          { return f.tx }
func (f *firstScheduler) OnPreempt(float64, *txn.Transaction)    {}
func (f *firstScheduler) OnCompletion(float64, *txn.Transaction) {}

// TestDeadlockDetected: with nothing runnable and no future event, every
// engine fails the run instead of spinning or returning early.
func TestDeadlockDetected(t *testing.T) {
	for _, e := range engines {
		err := e.run(sim.Config{}, newSet(t, 0), stuckScheduler{})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: err = %v, want deadlock detection", e.name, err)
		}
	}
}

// TestSchedulerReturningUnarrivedRejected: a scheduler that dispatches a
// transaction before its arrival (transaction 0 arrives at 5, transaction 1
// at 0) violates the contract on every engine.
func TestSchedulerReturningUnarrivedRejected(t *testing.T) {
	for _, e := range engines {
		err := e.run(sim.Config{}, newSet(t, 5, 0), &firstScheduler{pin: true})
		if err == nil || !strings.Contains(err.Error(), "before its arrival") {
			t.Errorf("%s: err = %v, want arrival violation", e.name, err)
		}
	}
}

// TestSchedulerReturningFinishedRejected: a scheduler that dispatches a
// transaction again after its completion violates the contract on every
// engine.
func TestSchedulerReturningFinishedRejected(t *testing.T) {
	for _, e := range engines {
		err := e.run(sim.Config{}, newSet(t, 0, 0), &firstScheduler{})
		if err == nil || !strings.Contains(err.Error(), "finished transaction") {
			t.Errorf("%s: err = %v, want finished-transaction violation", e.name, err)
		}
	}
}

// TestQueueCapCountsBackoff: queue:N counts every admitted, unfinished
// transaction, including one waiting out an abort backoff. On one server, A
// runs [0, 1) and aborts into a backoff until 6; B, arrived at 0.5, runs
// [1, 4). C arrives at 2 with A held and B running — two admitted and
// unfinished — so queue:2 sheds it.
func TestQueueCapCountsBackoff(t *testing.T) {
	for _, e := range engines {
		if e.name == "closed loop" {
			continue // rejects faults and admission
		}
		set, err := txn.NewSet([]*txn.Transaction{
			{ID: 0, Arrival: 0, Deadline: 100, Length: 1, Weight: 1},
			{ID: 1, Arrival: 0.5, Deadline: 100, Length: 3, Weight: 1},
			{ID: 2, Arrival: 2, Deadline: 100, Length: 1, Weight: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Faults: &fault.Plan{AbortProb: 1, MaxRestarts: 1, BackoffBase: 5, BackoffCap: 5},
			Admit:  admit.QueueCap{Max: 2},
		}
		if err := e.run(cfg, set, sched.NewFCFS()); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for i, want := range []bool{false, false, true} {
			if got := set.Txns[i].Shed; got != want {
				t.Errorf("%s: T%d shed = %v, want %v", e.name, i, got, want)
			}
		}
	}
}
