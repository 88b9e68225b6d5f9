package core

import (
	"strings"
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
	set := mustSet(t, mk(0, 0, 10, 2), mk(1, 0, 20, 3), mk(2, 1, 30, 1), mk(3, 5, 40, 1))
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
	a.members(1)[0].ready--

	// T0 finishes and its entity is recycled into T2's.
	t0 := a.Next(0)
	recycled := a.members(0)[0]
	if t0.ID != 0 {
		t.Fatalf("Next(0) = T%d, want T0", t0.ID)
	}
	t0.Remaining, t0.Finished, t0.FinishTime = 0, true, 2
	a.OnCompletion(2, t0)
	a.OnArrival(2, set.ByID(2))
	if a.members(2)[0] != recycled {
		t.Fatal("T2's entity was not taken from the free list")
	}
	if err := a.CheckInvariants(2); err != nil {
		t.Fatalf("clean state after recycling flagged: %v", err)
	}
	// A stale pointer to the re-carved entity, from a transaction that has
	// not arrived and from the one that finished.
	for _, id := range []txn.ID{3, 0} {
		a.memberOf[id] = recycled
		if err := a.CheckInvariants(2); err == nil {
			t.Fatalf("stale entity pointer of T%d not detected", id)
		}
		a.memberOf[id] = nil
	}
	// An entity on the free list that still sits in a heap.
	recycled.next, a.free = a.free, recycled
	if err := a.CheckInvariants(2); err == nil || !strings.Contains(err.Error(), "still in a heap") {
		t.Fatalf("recycled entity still in a heap: got %v", err)
	}
}
