// Package obstest holds event-stream folds for tests that compare streams
// across engine designs.
package obstest

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/obs"
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
