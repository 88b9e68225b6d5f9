package obs

import (
	"fmt"

	"repro/internal/txn"
)

// Validate checks the structural invariants of a complete decision-event
// stream (as captured by a Collector): per-transaction lifecycle ordering,
// monotone timestamps, and consistency between completions, deadline misses
// and sheds. It returns the first violation found, or nil for a well-formed
// stream. `asetssim -invariants` runs it on every traced run.
//
// The rules, per transaction:
//
//   - at most one arrival, one completion, one shed;
//   - dispatch, preempt, abort and completion require a prior arrival and
//     precede the completion (no events after a transaction finishes);
//   - every completion follows at least one dispatch (service was given);
//   - deadline_miss requires its transaction to have completed with positive
//     tardiness;
//   - restart requires a pending keyed abort (crash losses re-queue without
//     a restart event);
//   - a shed transaction never arrives, dispatches or completes;
//   - route precedes the transaction's arrival-or-shed outcome and never
//     follows its completion; failover requires a prior arrival and precedes
//     the completion (a failed-over transaction is alive on a new instance);
//   - a preempt is a real preemption: a running transaction preempted at an
//     instant is not dispatched again at that instant unless an abort,
//     validate_fail, restart or failover of it comes in between;
//
// and globally: event times never decrease. Eject and recover are
// instance-level circuit-breaker transitions with no per-transaction
// obligations.
func Validate(events []Event) error {
	type state struct {
		arrived    bool
		dispatched bool
		completed  bool
		shed       bool
		backoff    bool
		running    bool    // dispatched, and not since preempted, aborted, failed or failed over
		preempted  bool    // preempted while running at preemptedAt, and not since touched
		preemptAt  float64 // the instant of that preemption
		tardiness  float64
	}
	states := make(map[txn.ID]*state)
	get := func(id txn.ID) *state {
		s, ok := states[id]
		if !ok {
			s = &state{}
			states[id] = s
		}
		return s
	}
	fail := func(i int, ev Event, msg string) error {
		return fmt.Errorf("obs: invalid event stream at index %d (%s txn %d, t=%v): %s",
			i, ev.Kind, ev.Txn, ev.Time, msg)
	}
	last := 0.0
	for i, ev := range events {
		if ev.Time < last {
			return fail(i, ev, fmt.Sprintf("time went backwards (previous %v)", last))
		}
		last = ev.Time
		switch ev.Kind {
		case KindArrival:
			s := get(ev.Txn)
			switch {
			case s.arrived:
				return fail(i, ev, "duplicate arrival")
			case s.shed:
				return fail(i, ev, "arrival of a shed transaction")
			}
			s.arrived = true
		case KindDispatch:
			s := get(ev.Txn)
			switch {
			case !s.arrived:
				return fail(i, ev, "dispatch before arrival")
			case s.completed:
				return fail(i, ev, "dispatch after completion")
			case s.shed:
				return fail(i, ev, "dispatch of a shed transaction")
			case s.preempted && s.preemptAt == ev.Time:
				return fail(i, ev, "dispatch of the transaction preempted at the same instant (not a real preemption)")
			}
			s.dispatched, s.running, s.preempted = true, true, false
		case KindPreempt:
			s := get(ev.Txn)
			switch {
			case !s.arrived:
				return fail(i, ev, "preempt before arrival")
			case s.completed:
				return fail(i, ev, "preempt after completion")
			}
			s.preempted, s.preemptAt, s.running = s.running, ev.Time, false
		case KindCompletion:
			s := get(ev.Txn)
			switch {
			case !s.arrived:
				return fail(i, ev, "completion without a matching arrival")
			case s.completed:
				return fail(i, ev, "duplicate completion")
			case s.shed:
				return fail(i, ev, "completion of a shed transaction")
			case !s.dispatched:
				return fail(i, ev, "completion without any dispatch")
			}
			s.completed = true
			s.tardiness = ev.Tardiness
		case KindDeadlineMiss:
			s := get(ev.Txn)
			switch {
			case !s.completed:
				return fail(i, ev, "deadline_miss without completion")
			case s.tardiness <= 0:
				return fail(i, ev, "deadline_miss for an on-time completion")
			}
		case KindAbort:
			s := get(ev.Txn)
			switch {
			case !s.arrived:
				return fail(i, ev, "abort before arrival")
			case s.completed:
				return fail(i, ev, "abort after completion")
			}
			if ev.Detail != "crash" {
				s.backoff = true
			}
			s.running, s.preempted = false, false
		case KindRestart:
			s := get(ev.Txn)
			if !s.backoff {
				return fail(i, ev, "restart without a pending abort")
			}
			s.backoff, s.preempted = false, false
		case KindShed:
			s := get(ev.Txn)
			switch {
			case s.arrived:
				return fail(i, ev, "shed after arrival")
			case s.shed:
				return fail(i, ev, "duplicate shed")
			}
			s.shed = true
		case KindRoute:
			s := get(ev.Txn)
			switch {
			case s.completed:
				return fail(i, ev, "route after completion")
			case s.shed:
				return fail(i, ev, "route of a shed transaction")
			}
		case KindFailover:
			s := get(ev.Txn)
			switch {
			case !s.arrived:
				return fail(i, ev, "failover before arrival")
			case s.completed:
				return fail(i, ev, "failover after completion")
			}
			s.running, s.preempted = false, false
		case KindValidateFail:
			s := get(ev.Txn)
			switch {
			case !s.arrived:
				return fail(i, ev, "validate_fail before arrival")
			case s.completed:
				return fail(i, ev, "validate_fail after completion")
			case !s.dispatched:
				return fail(i, ev, "validate_fail without any dispatch")
			}
			s.running, s.preempted = false, false
		case KindConflictDefer:
			s := get(ev.Txn)
			if s.completed {
				return fail(i, ev, "conflict_defer after completion")
			}
		case KindAging, KindModeSwitch, KindStall, KindDegradeEnter,
			KindDegradeExit, KindEject, KindRecover,
			KindAlertFire, KindAlertResolve:
			// Scheduler-, controller-, instance- or SLO-level events carry
			// no per-transaction lifecycle obligations.
		default:
			return fail(i, ev, "unknown event kind")
		}
	}
	return nil
}
