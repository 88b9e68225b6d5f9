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
// At a decision point the engine re-decides the running transactions. The
// reference is the round trip: it hands every one of them back through
// OnPreempt and refills the servers through Next. It reports only what
// changed (a preempt event for a transaction not picked again, a dispatch
// for a pick that was not running), so a decision point whose choice does
// not change looks the same whatever the policy. A Decider answers the same
// decision in one call (see Decider).
type Scheduler interface {
	// Name returns the display name used in tables and figures.
	Name() string
	// Init prepares per-workload state, before any event callbacks, with
	// transactions in their reset state. It may be called again, and each
	// call starts the policy exactly as a freshly constructed one would: a
	// crashed instance restarts its scheduler this way.
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

// Decider is the optional call that settles a decision point at once. It
// only saves time: the schedule and the event stream are the same whatever
// it answers.
//
// Decide answers the round trip of a re-decision: running (checked out, in
// server order) handed back through OnPreempt at now, then Next called until
// servers transactions are out or Next returns nil. With an Acceptor, each
// pick of the round trip is a probe: every candidate Next returns is offered
// to acc, and Next is called again while acc skips. The pick is the
// candidate acc takes, or the probe's first candidate when acc stops or Next
// returns nil; the other candidates go back through OnPreempt in probe
// order. Decide appends the picks to picks in pick order and leaves the
// scheduler in the state the round trip would have left it: a pick that was
// running stays checked out, a new pick is checked out, and a running
// transaction that was not picked is handed back. It must not modify
// running.
//
// When the policy cannot replay the round trip exactly, Decide returns
// false and the engine makes the round trip itself. A false answer leaves
// the scheduler as it was, except for the bookkeeping the next Next at now
// would do anyway (ASETS* migrates its expired EDF entities); it may come
// after calls to acc, whose owner then discards what they recorded. A false
// answer is always correct; a true one must be exact.
//
// Engines find a scheduler's Decider through its Unwrap chain (DeciderOf),
// so a wrapper that only forwards needs no Decide of its own. A wrapper
// that changes Next's choice must not unwrap to its inner policy.
type Decider interface {
	Decide(now float64, running []*txn.Transaction, servers int, acc Acceptor, picks []*txn.Transaction) ([]*txn.Transaction, bool)
}

// Acceptor ends the probes of a Decide. Decide calls Accept on the
// candidates of one pick in probe order, until it answers take or stop, then
// Picked on the pick before it probes for the next pick.
type Acceptor interface {
	// Accept answers take (t is the pick), stop (the probe's first
	// candidate is the pick), or neither (skip t and offer the next).
	Accept(t *txn.Transaction) (take, stop bool)
	// Picked records that t was picked.
	Picked(t *txn.Transaction)
}

// DeciderOf returns the Decider of s: s itself, or the first Decider down
// its chain of Unwrap() Scheduler methods. It returns nil when there is
// none.
func DeciderOf(s Scheduler) Decider {
	for s != nil {
		if d, ok := s.(Decider); ok {
			return d
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
	set *txn.Set
	// state packs each transaction's readiness by ID: the count of its
	// finished dependencies, counted up from zero, plus the arrived and
	// finished bits. A fresh tracker is a zeroed slab that never reads the
	// transactions, and a transaction is ready exactly when its word is
	// arrived|len(Deps).
	state []uint32
	newly []*txn.Transaction // Complete's result, reused across calls
}

// The flag bits of a ReadyTracker state word, above any dependency count.
const (
	arrivedBit  = 1 << 30
	finishedBit = 1 << 31
)

// Reset starts the tracker over set with every transaction unarrived and
// unfinished, reusing its state slab when it is large enough. The zero
// ReadyTracker is ready to Reset.
func (rt *ReadyTracker) Reset(set *txn.Set) {
	rt.set, rt.state = set, Zeroed(rt.state, set.Len())
}

// Zeroed returns s resized to n zero elements, in place when s has the
// capacity and in a new slab otherwise. Policies build their
// per-transaction slabs through it in Init, so a re-initialized policy
// reuses them.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// readyWord is the state word of a ready transaction t.
func readyWord(t *txn.Transaction) uint32 { return arrivedBit | uint32(len(t.Deps)) }

// Arrive records the arrival of t and reports whether it is immediately
// ready (its dependency list is already drained).
func (rt *ReadyTracker) Arrive(t *txn.Transaction) bool {
	rt.state[t.ID] |= arrivedBit
	return rt.state[t.ID] == readyWord(t)
}

// Complete records the completion of t and returns the transactions that
// became ready as a result: dependents whose last outstanding dependency was
// t and that have already arrived. The result is the tracker's own buffer,
// which grows to the widest fan-out completed so far: it is valid until the
// next Complete, so callers consume it first.
func (rt *ReadyTracker) Complete(t *txn.Transaction) []*txn.Transaction {
	rt.state[t.ID] |= finishedBit
	newly := rt.newly[:0]
	for _, depID := range rt.set.DependentsOf(t.ID) {
		rt.state[depID]++
		if rt.state[depID]&arrivedBit == 0 {
			continue
		}
		if d := rt.set.ByID(depID); rt.state[depID] == readyWord(d) {
			newly = append(newly, d)
		}
	}
	rt.newly = newly
	return newly
}

// Ready reports whether t can execute right now.
func (rt *ReadyTracker) Ready(t *txn.Transaction) bool { return rt.state[t.ID] == readyWord(t) }
