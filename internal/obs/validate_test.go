package obs

import (
	"strings"
	"testing"
)

func TestValidateAcceptsWellFormedStream(t *testing.T) {
	evs := []Event{
		{Time: 0, Kind: KindArrival, Txn: 0},
		{Time: 0, Kind: KindDispatch, Txn: 0},
		{Time: 1, Kind: KindStall, Txn: -1, Detail: "stall"},
		{Time: 1, Kind: KindPreempt, Txn: 0},
		{Time: 2, Kind: KindDispatch, Txn: 0},
		{Time: 3, Kind: KindAbort, Txn: 0, Detail: "abort"},
		{Time: 5, Kind: KindRestart, Txn: 0},
		{Time: 5, Kind: KindPreempt, Txn: 0},
		{Time: 6, Kind: KindDispatch, Txn: 0},
		{Time: 9, Kind: KindCompletion, Txn: 0, Tardiness: 2},
		{Time: 9, Kind: KindDeadlineMiss, Txn: 0, Tardiness: 2},
		{Time: 10, Kind: KindShed, Txn: 1, Detail: "queue"},
	}
	if err := Validate(evs); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
		want string
	}{
		{"completion without arrival",
			[]Event{{Time: 1, Kind: KindCompletion, Txn: 0}},
			"without a matching arrival"},
		{"completion without dispatch",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 1, Kind: KindCompletion, Txn: 0},
			},
			"without any dispatch"},
		{"dispatch after completion",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 0, Kind: KindDispatch, Txn: 0},
				{Time: 1, Kind: KindCompletion, Txn: 0},
				{Time: 2, Kind: KindDispatch, Txn: 0},
			},
			"dispatch after completion"},
		{"deadline_miss without completion",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 1, Kind: KindDeadlineMiss, Txn: 0, Tardiness: 1},
			},
			"deadline_miss without completion"},
		{"deadline_miss on time",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 0, Kind: KindDispatch, Txn: 0},
				{Time: 1, Kind: KindCompletion, Txn: 0},
				{Time: 1, Kind: KindDeadlineMiss, Txn: 0},
			},
			"on-time completion"},
		{"duplicate arrival",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 1, Kind: KindArrival, Txn: 0},
			},
			"duplicate arrival"},
		{"duplicate completion",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 0, Kind: KindDispatch, Txn: 0},
				{Time: 1, Kind: KindCompletion, Txn: 0},
				{Time: 2, Kind: KindCompletion, Txn: 0},
			},
			"duplicate completion"},
		{"restart without abort",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 1, Kind: KindRestart, Txn: 0},
			},
			"restart without a pending abort"},
		{"dispatch of shed transaction",
			[]Event{
				{Time: 0, Kind: KindShed, Txn: 0, Detail: "queue"},
				{Time: 1, Kind: KindDispatch, Txn: 0},
			},
			"before arrival"},
		{"shed after arrival",
			[]Event{
				{Time: 0, Kind: KindArrival, Txn: 0},
				{Time: 1, Kind: KindShed, Txn: 0, Detail: "queue"},
			},
			"shed after arrival"},
		{"time went backwards",
			[]Event{
				{Time: 2, Kind: KindArrival, Txn: 0},
				{Time: 1, Kind: KindArrival, Txn: 1},
			},
			"time went backwards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.evs)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRealPreemptions: a preempt must be a real preemption — a
// running transaction preempted at an instant is not dispatched again at
// that instant — unless an abort, validate_fail, restart or failover of it
// comes in between, or it was not running when preempted.
func TestValidateRealPreemptions(t *testing.T) {
	running := []Event{
		{Time: 0, Kind: KindArrival, Txn: 0},
		{Time: 0, Kind: KindDispatch, Txn: 0},
		{Time: 0, Kind: KindArrival, Txn: 1},
	}
	with := func(evs ...Event) []Event { return append(append([]Event(nil), running...), evs...) }
	accepted := map[string][]Event{
		"dispatched at a later instant": with(
			Event{Time: 1, Kind: KindPreempt, Txn: 0},
			Event{Time: 1, Kind: KindDispatch, Txn: 1},
			Event{Time: 2, Kind: KindDispatch, Txn: 0},
		),
		"validate_fail in between": with(
			Event{Time: 1, Kind: KindPreempt, Txn: 0},
			Event{Time: 1, Kind: KindValidateFail, Txn: 0},
			Event{Time: 1, Kind: KindDispatch, Txn: 0},
		),
		"re-queued after validate_fail": with(
			Event{Time: 1, Kind: KindValidateFail, Txn: 0},
			Event{Time: 1, Kind: KindPreempt, Txn: 0},
			Event{Time: 1, Kind: KindDispatch, Txn: 0},
		),
		"restarted after an abort": with(
			Event{Time: 1, Kind: KindAbort, Txn: 0, Detail: "abort"},
			Event{Time: 2, Kind: KindRestart, Txn: 0},
			Event{Time: 2, Kind: KindPreempt, Txn: 0},
			Event{Time: 2, Kind: KindDispatch, Txn: 0},
		),
		"failover in between": with(
			Event{Time: 1, Kind: KindPreempt, Txn: 0},
			Event{Time: 1, Kind: KindFailover, Txn: 0},
			Event{Time: 1, Kind: KindDispatch, Txn: 0},
		),
	}
	for name, evs := range accepted {
		if err := Validate(evs); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	rejected := map[string][]Event{
		"dispatched right after": with(
			Event{Time: 1, Kind: KindPreempt, Txn: 0},
			Event{Time: 1, Kind: KindDispatch, Txn: 0},
		),
		"dispatched after another decision": with(
			Event{Time: 1, Kind: KindPreempt, Txn: 0},
			Event{Time: 1, Kind: KindDispatch, Txn: 1},
			Event{Time: 1, Kind: KindConflictDefer, Txn: 0},
			Event{Time: 1, Kind: KindCompletion, Txn: 1},
			Event{Time: 1, Kind: KindDispatch, Txn: 0},
		),
	}
	for name, evs := range rejected {
		err := Validate(evs)
		if err == nil || !strings.Contains(err.Error(), "preempted at the same instant") {
			t.Errorf("%s: error %v, want a rejected same-instant dispatch", name, err)
		}
	}
}
