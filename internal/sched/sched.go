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

// ReadyTracker maintains the readiness state of every transaction: a
// transaction is ready when it has arrived, all transactions in its
// dependency list have finished, and it has not itself finished. Policies
// embed a ReadyTracker so that precedence constraints are enforced uniformly
// (the paper assumes dependency information is available to the scheduler).
type ReadyTracker struct {
	set        *txn.Set
	unfinished []int // outstanding direct dependencies per transaction
	arrived    []bool
	finished   []bool
}

// NewReadyTracker builds a tracker for set with every transaction unarrived
// and unfinished.
func NewReadyTracker(set *txn.Set) *ReadyTracker {
	rt := &ReadyTracker{
		set:        set,
		unfinished: make([]int, set.Len()),
		arrived:    make([]bool, set.Len()),
		finished:   make([]bool, set.Len()),
	}
	for _, t := range set.Txns {
		rt.unfinished[t.ID] = len(t.Deps)
	}
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
// t and that have already arrived.
func (rt *ReadyTracker) Complete(t *txn.Transaction) []*txn.Transaction {
	rt.finished[t.ID] = true
	newly := make([]*txn.Transaction, 0, len(rt.set.Dependents[t.ID]))
	for _, depID := range rt.set.Dependents[t.ID] {
		rt.unfinished[depID]--
		if rt.unfinished[depID] == 0 && rt.arrived[depID] && !rt.finished[depID] {
			newly = append(newly, rt.set.ByID(depID))
		}
	}
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
