// Package sched defines the scheduling interface of the simulated
// web-database system together with the baseline policies the paper
// evaluates ASETS* against: FCFS, EDF, SRPT, Least Slack, HDF, and the
// related-work comparators HVF and MIX. The ASETS* family itself — the
// paper's contribution — lives in internal/core.
//
// All policies are priority-driven and preemptive-resume: the simulator
// consults the scheduler at every arrival and completion event (the only
// decision points ASETS* needs, per Section III-A.2) and runs whichever
// transaction the scheduler hands out until the next event.
package sched

import (
	"repro/internal/txn"
)

// Scheduler is the contract between the simulator and a scheduling policy.
//
// The engines follow a strict check-out protocol: Next removes the chosen
// transaction from the scheduler's queues, and the engine hands it back —
// via OnPreempt if it was interrupted (with Remaining already decremented)
// or via OnCompletion if it finished — before it asks Next to fill that
// server again. Arrivals may reach the scheduler while transactions are
// checked out. This keeps every queue's keys consistent without schedulers
// having to track execution progress themselves.
//
// At a decision point the engine re-decides the running transactions: it
// hands every one of them back through OnPreempt and refills the servers
// through Next. It reports only what changed (a preempt event for a
// transaction not picked again, a dispatch for a pick that was not
// running), so a decision point whose choice does not change looks the same
// whatever the policy. A Keeper may spare that round trip (see Keeper).
type Scheduler interface {
	// Name returns the display name used in tables and figures.
	Name() string
	// Init prepares per-workload state. It must be called exactly once,
	// before any event callbacks, with transactions in their reset state.
	Init(set *txn.Set)
	// OnArrival notifies the scheduler that t has been submitted.
	OnArrival(now float64, t *txn.Transaction)
	// Next checks out the transaction to execute, or nil when no ready
	// transaction is pending.
	Next(now float64) *txn.Transaction
	// OnPreempt returns a checked-out, unfinished transaction to the
	// scheduler after it ran for some time (t.Remaining was updated).
	OnPreempt(now float64, t *txn.Transaction)
	// OnCompletion notifies the scheduler that the checked-out transaction
	// finished at time now.
	OnCompletion(now float64, t *txn.Transaction)
}

// Keeper is the optional seam that spares a scheduler the check-out round
// trip of a decision point whose choice does not change. It only saves
// time: the schedule and the event stream are the same whatever it answers.
//
// Keep reports whether handing running back through OnPreempt at now and
// then calling Next would check out every transaction of running before any
// other one. When it would, Keep puts running into that pick order and
// leaves the scheduler in the state those calls would have left it, so the
// engine keeps running on its servers without the round trip. When it would
// not, or when the policy cannot tell cheaply, Keep returns false, and the
// engine makes the round trip in its own order (Keep may have reordered the
// slice it was given). Either way Keep may first do the bookkeeping the next
// Next at now would do anyway (ASETS* migrates its expired EDF entities). A
// false answer is always correct; a true one must be exact.
//
// Engines find a scheduler's Keeper through its Unwrap chain (KeeperOf), so
// a wrapper that only forwards needs no Keep of its own. A wrapper that
// changes Next's choice must not unwrap to its inner policy's Keeper.
type Keeper interface {
	Keep(now float64, running []*txn.Transaction) bool
}

// KeeperOf returns the Keeper of s: s itself, or the first Keeper down its
// chain of Unwrap() Scheduler methods. It returns nil when there is none.
func KeeperOf(s Scheduler) Keeper {
	for s != nil {
		if k, ok := s.(Keeper); ok {
			return k
		}
		u, ok := s.(interface{ Unwrap() Scheduler })
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// ReadyTracker maintains the readiness state of every transaction: a
// transaction is ready when it has arrived, all transactions in its
// dependency list have finished, and it has not itself finished. Policies
// embed a ReadyTracker so that precedence constraints are enforced uniformly
// (the paper assumes dependency information is available to the scheduler).
type ReadyTracker struct {
	set        *txn.Set
	unfinished []int32 // outstanding direct dependencies per transaction
	arrived    []bool
	finished   []bool
	newly      []*txn.Transaction // Complete's result, reused across calls
}

// NewReadyTracker builds a tracker for set with every transaction unarrived
// and unfinished.
func NewReadyTracker(set *txn.Set) *ReadyTracker {
	rt := &ReadyTracker{
		set:        set,
		unfinished: make([]int32, set.Len()),
		arrived:    make([]bool, set.Len()),
		finished:   make([]bool, set.Len()),
	}
	for _, t := range set.Txns {
		rt.unfinished[t.ID] = int32(len(t.Deps))
	}
	most := 0
	for _, deps := range set.Dependents {
		most = max(most, len(deps))
	}
	rt.newly = make([]*txn.Transaction, 0, most)
	return rt
}

// Arrive records the arrival of t and reports whether it is immediately
// ready (its dependency list is already drained).
func (rt *ReadyTracker) Arrive(t *txn.Transaction) bool {
	rt.arrived[t.ID] = true
	return rt.unfinished[t.ID] == 0
}

// Complete records the completion of t and returns the transactions that
// became ready as a result: dependents whose last outstanding dependency was
// t and that have already arrived. The result is the tracker's own buffer,
// sized for the widest fan-out at construction: it is valid until the next
// Complete, so callers consume it first.
func (rt *ReadyTracker) Complete(t *txn.Transaction) []*txn.Transaction {
	rt.finished[t.ID] = true
	newly := rt.newly[:0]
	for _, depID := range rt.set.Dependents[t.ID] {
		rt.unfinished[depID]--
		if rt.unfinished[depID] == 0 && rt.arrived[depID] && !rt.finished[depID] {
			newly = append(newly, rt.set.ByID(depID))
		}
	}
	rt.newly = newly
	return newly
}

// Ready reports whether t can execute right now.
func (rt *ReadyTracker) Ready(t *txn.Transaction) bool {
	return rt.arrived[t.ID] && !rt.finished[t.ID] && rt.unfinished[t.ID] == 0
}

// Arrived reports whether t has been submitted.
func (rt *ReadyTracker) Arrived(t *txn.Transaction) bool { return rt.arrived[t.ID] }

// Finished reports whether t has completed.
func (rt *ReadyTracker) Finished(t *txn.Transaction) bool { return rt.finished[t.ID] }
