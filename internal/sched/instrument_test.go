package sched

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/txn"
)

func instrumentSet(t *testing.T) *txn.Set {
	t.Helper()
	txns := []*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 2, Length: 1, Weight: 1},
		{ID: 1, Arrival: 0.5, Deadline: 1.2, Length: 0.4, Weight: 1},
		{ID: 2, Arrival: 1, Deadline: 1.5, Length: 2, Weight: 1}, // will miss
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	set.ResetAll()
	return set
}

func TestInstrumentNoopWhenUnconfigured(t *testing.T) {
	if o := Instrument(nil, nil); o != nil {
		t.Fatalf("Instrument(nil, nil) built an observer: %+v", o)
	}
	// A Discard sink with no registry observes nothing: also zero overhead.
	if o := Instrument(obs.Discard, nil); o != nil {
		t.Fatalf("Instrument(Discard, nil) built an observer: %+v", o)
	}
	// A nil observer's entry points are no-ops.
	var o *Instrumented
	if o.Sink() != nil {
		t.Fatal("nil observer has a sink")
	}
	o.Flush()
	o.Release()
}

// TestInstrumentEmitsDecisionEvents drives the observer through the
// kernel's check-out protocol by hand and checks the event stream and the
// registry agree with what happened.
func TestInstrumentEmitsDecisionEvents(t *testing.T) {
	set := instrumentSet(t)
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	o := Instrument(col, reg)
	s := NewEDF()
	s.Init(set)
	arrive := func(now float64, id txn.ID) {
		o.Arrival(now, set.ByID(id))
		s.OnArrival(now, set.ByID(id))
	}
	next := func(now float64, want txn.ID) *txn.Transaction {
		got := s.Next(now)
		if got == nil || got.ID != want {
			t.Fatalf("Next(%v) = %v, want T%d", now, got, want)
		}
		o.Dispatch(now, got, "")
		return got
	}
	complete := func(now float64, got *txn.Transaction) {
		got.Remaining = 0
		got.Finished = true
		got.FinishTime = now
		o.Completion(now, got)
		s.OnCompletion(now, got)
	}

	// t0 arrives and runs until t1 arrives at 0.5 (preemption point).
	arrive(0, 0)
	got := next(0, 0)
	got.Remaining -= 0.5
	o.Preempt(0.5, got)
	s.OnPreempt(0.5, got)
	arrive(0.5, 1)

	// t1 has the earlier deadline: runs 0.5→0.9 and completes on time.
	complete(0.9, next(0.5, 1))
	// t0 resumes and completes on time; then t2 arrives late and misses.
	complete(1.4, next(0.9, 0))
	arrive(1.4, 2)
	complete(3.4, next(1.4, 2))

	// Events and histogram observations batch until the run loop drains
	// them; this test drives the observer by hand, so drain explicitly
	// before reading the collector or the registry.
	o.Flush()

	kinds := map[obs.Kind]int{}
	for _, ev := range col.Events() {
		kinds[ev.Kind]++
	}
	want := map[obs.Kind]int{
		obs.KindArrival:      3,
		obs.KindDispatch:     4,
		obs.KindPreempt:      1,
		obs.KindCompletion:   3,
		obs.KindDeadlineMiss: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%v events = %d, want %d", k, kinds[k], n)
		}
	}

	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters[MetricArrivals] != 3 || counters[MetricDispatches] != 4 ||
		counters[MetricPreemptions] != 1 || counters[MetricCompletions] != 3 ||
		counters[MetricMisses] != 1 {
		t.Fatalf("counters = %v", counters)
	}
	var tard obs.HistogramValue
	for _, h := range snap.Histograms {
		if h.Name == MetricTardiness {
			tard = h
		}
	}
	if tard.Count != 3 || tard.Sum != 1.9 { // only t2 is tardy: 3.4 - 1.5
		t.Fatalf("tardiness histogram = %+v", tard)
	}

	// Events are stamped with the decision's simulated time.
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindDeadlineMiss && (ev.Time != 3.4 || ev.Tardiness != 1.9) {
			t.Fatalf("deadline-miss event = %+v", ev)
		}
	}
}

// TestInstrumentPropagatesSink: events emitted through the observer's Sink
// — the entry the kernel hands SinkSetter policies and the recorders — join
// the staged stream in emission order, and the policy-internal kinds bump
// their registry counters.
func TestInstrumentPropagatesSink(t *testing.T) {
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	o := Instrument(col, reg)
	set := instrumentSet(t)
	o.Arrival(0, set.ByID(0))
	o.Sink().Emit(obs.Event{Time: 1, Kind: obs.KindModeSwitch, Txn: -1, Workflow: 0})
	o.Sink().Emit(obs.Event{Time: 2, Kind: obs.KindAging, Txn: 0, Workflow: -1})
	o.Dispatch(2, set.ByID(0), "3")
	o.Flush()
	var kinds []string
	for _, ev := range col.Events() {
		kinds = append(kinds, ev.Kind.String()+":"+ev.Detail)
	}
	if got := strings.Join(kinds, " "); got != "arrival: mode_switch: aging: dispatch:3" {
		t.Fatalf("stream = %s", got)
	}
	counters := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters[MetricModeSwitch] != 1 || counters[MetricAging] != 1 {
		t.Fatalf("internal-event counters = %v", counters)
	}
}
