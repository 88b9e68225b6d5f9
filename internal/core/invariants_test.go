package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// auditingScheduler wraps an ASETSStar and audits its internal invariants
// immediately after every Next call — the point where migration has just
// run, so every documented invariant must hold exactly.
type auditingScheduler struct {
	*ASETSStar
	t *testing.T
}

func (a *auditingScheduler) Next(now float64) *txn.Transaction {
	got := a.ASETSStar.Next(now)
	if err := a.ASETSStar.CheckInvariants(now); err != nil {
		a.t.Fatalf("invariant violated after Next(%v): %v", now, err)
	}
	return got
}

var _ sched.Scheduler = (*auditingScheduler)(nil)

// TestInvariantsHoldThroughoutSimulations drives audited ASETS* instances
// (every variant) through randomized workloads; CheckInvariants runs at
// every decision point.
func TestInvariantsHoldThroughoutSimulations(t *testing.T) {
	variants := []func() *ASETSStar{
		func() *ASETSStar { return New() },
		func() *ASETSStar { return NewReady() },
		func() *ASETSStar { return New(WithRule(RuleSymmetric)) },
		func() *ASETSStar { return New(WithHeadExcludedRep()) },
		func() *ASETSStar { return New(WithTimeActivation(0.01)) },
		func() *ASETSStar { return New(WithCountActivation(0.05)) },
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := workload.Default(0.3+0.12*float64(seed), seed)
		cfg.N = 150
		if seed%2 == 0 {
			cfg = cfg.WithWorkflows(5, int(seed%3)+1).WithWeights()
			cfg.Order = workload.OrderRandom
		}
		for vi, mk := range variants {
			set := workload.MustGenerate(cfg)
			audited := &auditingScheduler{ASETSStar: mk(), t: t}
			if _, err := simRunForTest(set, audited); err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, vi, err)
			}
		}
	}
}

// simRunForTest is a minimal single-server simulation loop local to this
// package (importing internal/sim here would create an import cycle via
// sim's tests; the loop is ten lines and mirrors sim.Run's contract).
func simRunForTest(set *txn.Set, s sched.Scheduler) (int, error) {
	set.ResetAll()
	s.Init(set)
	order := append([]*txn.Transaction(nil), set.Txns...)
	// Arrival order by time then ID.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && (order[j].Arrival < order[j-1].Arrival ||
			(order[j].Arrival == order[j-1].Arrival && order[j].ID < order[j-1].ID)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	now, next, done := 0.0, 0, 0
	deliver := func(upTo float64) {
		for next < len(order) && order[next].Arrival <= upTo {
			s.OnArrival(upTo, order[next])
			next++
		}
	}
	for done < len(order) {
		t := s.Next(now)
		if t == nil {
			if next >= len(order) {
				return done, errDeadlock
			}
			now = order[next].Arrival
			deliver(now)
			continue
		}
		finish := now + t.Remaining
		if next < len(order) && order[next].Arrival < finish {
			at := order[next].Arrival
			t.Remaining -= at - now
			now = at
			s.OnPreempt(now, t)
			deliver(now)
			continue
		}
		now = finish
		t.Remaining = 0
		t.Finished = true
		t.FinishTime = now
		done++
		s.OnCompletion(now, t)
		deliver(now)
	}
	return done, nil
}

var errDeadlock = &deadlockError{}

type deadlockError struct{}

func (*deadlockError) Error() string { return "deadlock" }

// TestCheckInvariantsDetectsCorruption corrupts internal state on purpose
// and expects the checker to notice.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	set := mustSet(t, mk(0, 0, 10, 2), mk(1, 0, 20, 3))
	a := New()
	a.Init(set)
	a.OnArrival(0, set.ByID(0))
	a.OnArrival(0, set.ByID(1))
	if err := a.CheckInvariants(0); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	// Corrupt a cached representative.
	a.members(0)[0].rep.Deadline += 5
	if err := a.CheckInvariants(0); err == nil {
		t.Fatal("corrupted representative not detected")
	}
	a.members(0)[0].rep.Deadline -= 5
	// Corrupt a ready count.
	a.members(1)[0].ready++
	if err := a.CheckInvariants(0); err == nil {
		t.Fatal("corrupted ready count not detected")
	}
}
