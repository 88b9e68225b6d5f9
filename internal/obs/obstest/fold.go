// Package obstest holds event-stream folds for tests that compare streams
// across engine designs.
package obstest

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/txn"
)

// RoutedFolds returns two order-insensitive digests of a routed decision
// stream. instants hashes each instant's event lines sorted within the
// instant, instants in time order; txns hashes each transaction's event
// subsequence in stream order, transactions in ID order. Seq stamps are
// cleared first. Both folds drop degrade events and a preempt whose
// transaction's previous event is a restart or validate_fail at the same
// time: one driver returns a restarted or re-validated transaction to its
// scheduler with a preempt event, another without.
func RoutedFolds(events []obs.Event) (instants, txns string) {
	type line struct {
		t   float64
		txn int
		b   []byte
	}
	var lines []line
	last := map[int]obs.Event{}
	for _, ev := range events {
		prev, seen := last[int(ev.Txn)]
		last[int(ev.Txn)] = ev
		switch {
		case ev.Kind == obs.KindDegradeEnter || ev.Kind == obs.KindDegradeExit:
			continue
		case ev.Kind == obs.KindPreempt && seen && prev.Time == ev.Time &&
			(prev.Kind == obs.KindRestart || prev.Kind == obs.KindValidateFail):
			continue
		}
		ev.Seq = 0
		b, err := ev.MarshalJSON()
		if err != nil {
			panic(err)
		}
		lines = append(lines, line{ev.Time, int(ev.Txn), b})
	}
	byTxn := slices.Clone(lines)
	slices.SortStableFunc(byTxn, func(x, y line) int { return cmp.Compare(x.txn, y.txn) })
	slices.SortFunc(lines, func(x, y line) int {
		return cmp.Or(cmp.Compare(x.t, y.t), slices.Compare(x.b, y.b))
	})
	hash := func(ls []line, txnOnly bool) string {
		h := sha256.New()
		for _, l := range ls {
			if txnOnly && l.txn < 0 {
				continue
			}
			h.Write(l.b)
			h.Write([]byte{'\n'})
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	return hash(lines, false), hash(byTxn, true)
}

// FoldKeeps rewrites a single backend's decision stream from the protocol
// that returns every running transaction at every decision point into the
// stream of the keeping protocol (sched.Keeper), instant by instant (a run
// of events with one time):
//
//   - A Return preempt is a preempt whose transaction's previous event in
//     the instant is no restart or validate_fail (those preempts re-queue a
//     transaction that was not running).
//   - When the instant's first dispatches check out exactly the Return
//     preempted transactions, none of which aborts, restarts or fails
//     validation in the instant, and no conflict_defer comes before the
//     last of those dispatches (no steal reordered them), the
//     preempt→dispatch pair of each is dropped: the keeping protocol leaves
//     them running.
//   - Otherwise every Return preempt moves, in order, to just before the
//     instant's first aging, conflict_defer or dispatch event, or to the
//     end of the instant when it has none: the keeping protocol returns the
//     running set when it settles the re-decision, after the instant's
//     restarts and arrivals and after the policy's migrations.
//
// Seq stamps are cleared, since the fold moves and drops events.
func FoldKeeps(events []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for start := 0; start < len(events); {
		end := start + 1
		for end < len(events) && events[end].Time == events[start].Time {
			end++
		}
		out = foldInstant(out, events[start:end])
		start = end
	}
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

// foldInstant appends the keeping protocol's form of one instant to out.
func foldInstant(out, inst []obs.Event) []obs.Event {
	var returned, dispatched []int // positions in inst
	touched := map[txn.ID]bool{}   // transactions that abort, restart or fail validation
	last := map[txn.ID]obs.Kind{}
	for i, ev := range inst {
		prev, seen := last[ev.Txn]
		last[ev.Txn] = ev.Kind
		switch k := ev.Kind; {
		case k == obs.KindPreempt && (!seen || (prev != obs.KindRestart && prev != obs.KindValidateFail)):
			returned = append(returned, i)
		case k == obs.KindDispatch:
			dispatched = append(dispatched, i)
		case k == obs.KindAbort || k == obs.KindRestart || k == obs.KindValidateFail:
			touched[ev.Txn] = true
		}
	}
	if len(returned) == 0 {
		return append(out, inst...)
	}
	drop := map[int]bool{}
	if kept(inst, returned, dispatched, touched) {
		for k, i := range returned {
			drop[i], drop[dispatched[k]] = true, true
		}
	}
	moved := map[int]bool{}
	for _, i := range returned {
		moved[i] = !drop[i]
	}
	flushed := false
	flush := func() {
		if !flushed {
			for _, i := range returned {
				if moved[i] {
					out = append(out, inst[i])
				}
			}
			flushed = true
		}
	}
	for i, ev := range inst {
		switch {
		case drop[i] || moved[i]:
			continue
		case ev.Kind == obs.KindAging || ev.Kind == obs.KindConflictDefer || ev.Kind == obs.KindDispatch:
			flush()
		}
		out = append(out, ev)
	}
	flush()
	return out
}

// kept reports whether the instant's first len(returned) dispatches check
// out exactly the Return preempted transactions, none of them touched, with
// no steal among them.
func kept(inst []obs.Event, returned, dispatched []int, touched map[txn.ID]bool) bool {
	if len(dispatched) < len(returned) {
		return false
	}
	for _, ev := range inst[:dispatched[len(returned)-1]] {
		if ev.Kind == obs.KindConflictDefer {
			return false
		}
	}
	want := map[txn.ID]bool{}
	for _, i := range returned {
		if touched[inst[i].Txn] {
			return false
		}
		want[inst[i].Txn] = true
	}
	for _, i := range dispatched[:len(returned)] {
		if !want[inst[i].Txn] {
			return false
		}
		delete(want, inst[i].Txn)
	}
	return len(want) == 0
}
