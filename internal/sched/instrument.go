package sched

import (
	"repro/internal/obs"
	"repro/internal/txn"
)

// SinkSetter is the optional seam for policies that emit events about their
// internal decisions — ASETS* reports balance-aware aging activations and
// EDF↔HDF entity migrations through it. The simulator kernel hands such a
// policy its observer's Sink, so policy-internal events land in the same
// stream as the decision-loop events.
type SinkSetter interface {
	SetSink(obs.Sink)
}

// Metric and event names of the decision-loop instrumentation; the full
// taxonomy is documented in docs/OBSERVABILITY.md.
const (
	MetricArrivals    = "asets_sched_arrivals_total"
	MetricDispatches  = "asets_sched_dispatches_total"
	MetricPreemptions = "asets_sched_preemptions_total"
	MetricCompletions = "asets_sched_completions_total"
	MetricMisses      = "asets_sched_deadline_misses_total"
	MetricAging       = "asets_sched_aging_activations_total"
	MetricModeSwitch  = "asets_sched_mode_switches_total"
	// MetricConflictDefers counts queued transactions a conflict-aware
	// policy (contention.Deferring) skipped in favour of a later
	// non-conflicting one.
	MetricConflictDefers = "asets_sched_conflict_defers_total"
	MetricTardiness      = "asets_tardiness"
	MetricResponse       = "asets_response_time"
	MetricSimNow         = "asets_sim_now"
)

// evBatchSize is the event staging buffer length: emitted events accumulate
// in a fixed inline array and reach the sink chain through one obs.EmitBatch
// call (one Ring lock acquisition per batch) when the buffer fills or Flush
// drains. Delivery order is exactly emission order, so batching is invisible
// to every sink fold.
const evBatchSize = 128

// Instrumented is the unified observability layer's decision-loop observer:
// the simulator kernel calls it at its own call sites — arrival, dispatch,
// preemption, completion — and it emits a typed obs.Event and bumps the
// registry metrics for each. Every engine drives every policy through the
// kernel, so observing there covers all policies and engines without
// per-policy edits. One observer may serve several kernels driven from one
// goroutine (the instances of a cluster run): their events then form one
// stream in global emission order.
//
// Emissions write into a fixed inline staging buffer (sinks capture by copy
// — the obs.BatchSink contract), and batches leave through obs.EmitBatch
// when the buffer fills or Flush drains. Out-of-band emitters — policies,
// the fault and contention recorders, the SLO engine, the cluster router —
// stage into the same buffer through Sink, so delivery stays in true
// emission order while it is batched. Counters and histograms are updated
// at each call; only the simulated-now gauge waits for Flush.
type Instrumented struct {
	sink obs.Sink // the sink chain batches are delivered to
	emit bool     // sink is not obs.Discard

	evBuf [evBatchSize]obs.Event // staged events, delivered in emission order
	evN   int

	arrivals       *obs.Counter
	dispatches     *obs.Counter
	preemptions    *obs.Counter
	completions    *obs.Counter
	misses         *obs.Counter
	aging          *obs.Counter
	modeSwitches   *obs.Counter
	conflictDefers *obs.Counter
	tardiness      *obs.Histogram
	response       *obs.Histogram
	simNow         *obs.Gauge

	now    float64 // simulated time of the latest call, published at Flush
	nowSet bool
}

// Instrument returns an observer emitting into sink and updating reg. Either
// may be nil; with both disabled (nil or obs.Discard sink, nil registry) it
// returns nil, so uninstrumented runs pay nothing — nothing would observe the
// events or the counts. Events are stamped with the simulated now of each
// call — never the host clock.
//
//lint:coldpath instrumentation wiring is per-run setup
func Instrument(sink obs.Sink, reg *obs.Registry) *Instrumented {
	if (sink == nil || sink == obs.Discard) && reg == nil {
		return nil
	}
	if sink == nil {
		sink = obs.Discard
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Instrumented{
		sink:           sink,
		emit:           sink != obs.Discard,
		arrivals:       reg.Counter(MetricArrivals, "transactions submitted to the scheduler"),
		dispatches:     reg.Counter(MetricDispatches, "transactions checked out to a server"),
		preemptions:    reg.Counter(MetricPreemptions, "transactions returned unfinished after running"),
		completions:    reg.Counter(MetricCompletions, "transactions finished"),
		misses:         reg.Counter(MetricMisses, "completions past the deadline"),
		aging:          reg.Counter(MetricAging, "balance-aware T_old activations"),
		modeSwitches:   reg.Counter(MetricModeSwitch, "EDF/HDF scheduling-entity migrations"),
		conflictDefers: reg.Counter(MetricConflictDefers, "queued transactions deferred by conflict-aware dispatch"),
		tardiness:      reg.Histogram(MetricTardiness, "tardiness of completed transactions"),
		response:       reg.Histogram(MetricResponse, "response time (finish - arrival) of completed transactions"),
		simNow:         reg.Gauge(MetricSimNow, "simulated time of the latest scheduler callback"),
	}
}

// Sink returns the observer's staged event entry (its Emit): a sink that
// stages into the same buffer as the decision-loop calls and counts
// policy-internal events, so out-of-band emitters interleave with them in
// true emission order. A nil observer returns nil.
func (in *Instrumented) Sink() obs.Sink {
	if in == nil {
		return nil
	}
	return in
}

// Flush delivers staged events to the sink chain and publishes the simulated
// now gauge, so a registry snapshot or sink read sees every observation so
// far. A nil observer is a no-op.
func (in *Instrumented) Flush() {
	if in == nil {
		return
	}
	if in.evN > 0 {
		in.flushEvents()
	}
	if in.nowSet {
		in.simNow.Set(in.now)
		in.nowSet = false
	}
}

// flushEvents delivers the staged events as one batch.
func (in *Instrumented) flushEvents() {
	obs.EmitBatch(in.sink, in.evBuf[:in.evN])
	in.evN = 0
}

// stage claims the next staging slot, flushing first when the buffer is
// full. Callers fill every numeric field of the returned slot in place:
// writing through the pointer spares the temporary-struct copy a composite
// literal costs, and Detail — the slot's only pointer field — is cleared
// here only when a recycled slot actually holds one, so the steady-state
// store sequence never triggers a write barrier.
//
//lint:hotpath
func (in *Instrumented) stage() *obs.Event {
	if in.evN == evBatchSize {
		in.flushEvents()
	}
	e := &in.evBuf[in.evN]
	in.evN++
	e.Seq = 0
	if e.Detail != "" {
		e.Detail = ""
	}
	return e
}

// Arrival observes t entering the scheduler at now.
func (in *Instrumented) Arrival(now float64, t *txn.Transaction) {
	in.arrivals.Inc()
	in.now, in.nowSet = now, true
	if in.emit {
		e := in.stage()
		e.Time, e.Kind, e.Txn, e.Workflow = now, obs.KindArrival, t.ID, -1
		e.Deadline, e.Remaining, e.Tardiness = t.Deadline, t.Remaining, 0
	}
}

// Dispatch observes t checked out onto a server at now; inst, when not
// empty, names the instance in the event's detail.
func (in *Instrumented) Dispatch(now float64, t *txn.Transaction, inst string) {
	in.dispatches.Inc()
	in.now, in.nowSet = now, true
	if in.emit {
		e := in.stage()
		e.Time, e.Kind, e.Txn, e.Workflow = now, obs.KindDispatch, t.ID, -1
		e.Deadline, e.Remaining, e.Tardiness = t.Deadline, t.Remaining, 0
		if inst != "" {
			e.Detail = inst
		}
	}
}

// Preempt observes t returned to the scheduler unfinished at now.
func (in *Instrumented) Preempt(now float64, t *txn.Transaction) {
	in.preemptions.Inc()
	in.now, in.nowSet = now, true
	if in.emit {
		e := in.stage()
		e.Time, e.Kind, e.Txn, e.Workflow = now, obs.KindPreempt, t.ID, -1
		e.Deadline, e.Remaining, e.Tardiness = t.Deadline, t.Remaining, 0
	}
}

// Completion observes t committing at now. The kernel marks t finished
// first, so its tardiness is final here.
func (in *Instrumented) Completion(now float64, t *txn.Transaction) {
	tard := t.Tardiness()
	in.completions.Inc()
	in.now, in.nowSet = now, true
	in.tardiness.Observe(tard)
	in.response.Observe(t.FinishTime - t.Arrival)
	if tard > 0 {
		in.misses.Inc()
	}
	if in.emit {
		e := in.stage()
		e.Time, e.Kind, e.Txn, e.Workflow = now, obs.KindCompletion, t.ID, -1
		e.Deadline, e.Remaining, e.Tardiness = t.Deadline, 0, tard
		if tard > 0 {
			e = in.stage()
			e.Time, e.Kind, e.Txn, e.Workflow = now, obs.KindDeadlineMiss, t.ID, -1
			e.Deadline, e.Remaining, e.Tardiness = t.Deadline, 0, tard
		}
	}
}

// Emit implements obs.Sink, the staged entry Sink returns: it stages an
// out-of-band event into the observer's event buffer while counting the
// policy-internal ones in the registry, keeping them in stream order with the
// decision-loop events: policies emit from inside scheduler callbacks on the
// run-loop goroutine, after the kernel's observer call for the same decision
// has returned.
func (in *Instrumented) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindAging:
		in.aging.Inc()
	case obs.KindModeSwitch:
		in.modeSwitches.Inc()
	case obs.KindConflictDefer:
		in.conflictDefers.Inc()
	case obs.KindArrival, obs.KindDispatch, obs.KindPreempt,
		obs.KindCompletion, obs.KindDeadlineMiss:
		// Decision-loop kinds are counted by the observer's own calls.
	case obs.KindAbort, obs.KindRestart, obs.KindStall, obs.KindShed,
		obs.KindDegradeEnter, obs.KindDegradeExit,
		obs.KindRoute, obs.KindFailover, obs.KindEject, obs.KindRecover,
		obs.KindValidateFail, obs.KindAlertFire, obs.KindAlertResolve:
		// Fault-, cluster-, contention- and SLO-layer kinds are counted by
		// their recorders/engines at their emission site (the
		// sim/executor/cluster event loop); pass them through unchanged.
	default:
		panic("sched: observer received unknown event kind")
	}
	if in.emit {
		*in.stage() = ev
	}
}
