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

// Metric names of the decision-loop observer's histograms and gauge; its
// counters are named by the obs kind table. The full taxonomy is documented
// in docs/OBSERVABILITY.md.
const (
	MetricTardiness = "asets_tardiness"
	MetricResponse  = "asets_response_time"
	MetricSimNow    = "asets_sim_now"
)

// evBatchSize is the event staging buffer length: emitted events accumulate
// in a fixed inline array and reach the sink chain through one obs.EmitBatch
// call (one Ring lock acquisition per batch) when the buffer fills or Flush
// drains. Delivery order is exactly emission order, so batching is invisible
// to every sink fold.
const evBatchSize = 128

// Instrumented is the unified observability layer's decision-loop observer:
// the simulator kernel calls it at its own call sites — arrival, dispatch,
// preemption, completion — and it emits a typed obs.Event for each. Every
// engine drives every policy through the kernel, so observing there covers
// all policies and engines without per-policy edits. One observer may serve
// several kernels driven from one goroutine (the instances of a cluster
// run): their events then form one stream in global emission order.
//
// Counting is a fold of that stream: every event the observer stages or
// emits bumps the registry counter of its kind (obs.Counters), for the kinds
// the wiring switched on with Count.
//
// Emissions write into a fixed inline staging buffer (sinks capture by copy
// — the obs.BatchSink contract), and batches leave through obs.EmitBatch
// when the buffer fills or Flush drains. Out-of-band emitters — policies,
// the kernel's fault, admission and validation layers, the SLO engine, the
// cluster router — stage into the same buffer through Sink or Note, so
// delivery stays in true emission order while it is batched. Counters and
// histograms are updated at each call; only the simulated-now gauge waits
// for Flush.
type Instrumented struct {
	sink obs.Sink      // the sink chain batches are delivered to
	emit bool          // sink is not obs.Discard
	reg  *obs.Registry // nil: nothing counts

	evBuf [evBatchSize]obs.Event // staged events, delivered in emission order
	evN   int

	counts obs.Counters
	done   obs.HistogramPair // tardiness and response time; unset without a registry
	simNow *obs.Gauge        // nil without a registry

	now    float64 // simulated time of the latest call, published at Flush
	nowSet bool
}

// Instrument returns an observer emitting into sink and updating reg. Either
// may be nil; with both disabled (nil or obs.Discard sink, nil registry) it
// returns nil, so uninstrumented runs pay nothing — nothing would observe the
// events or the counts. Events are stamped with the simulated now of each
// call — never the host clock. The decision-loop and policy-internal kinds
// count from the start.
//
//lint:coldpath instrumentation wiring is per-run setup
func Instrument(sink obs.Sink, reg *obs.Registry) *Instrumented {
	if (sink == nil || sink == obs.Discard) && reg == nil {
		return nil
	}
	if sink == nil {
		sink = obs.Discard
	}
	in := &Instrumented{sink: sink, emit: sink != obs.Discard, reg: reg}
	in.Count(obs.KindArrival, obs.KindDispatch, obs.KindPreempt, obs.KindCompletion,
		obs.KindDeadlineMiss, obs.KindAging, obs.KindModeSwitch, obs.KindConflictDefer)
	if reg != nil {
		in.done = reg.HistogramPair(MetricTardiness, "tardiness of completed transactions",
			MetricResponse, "response time (finish - arrival) of completed transactions")
		in.simNow = reg.Gauge(MetricSimNow, "simulated time of the latest scheduler callback")
	}
	return in
}

// Count switches on counting for kinds: it registers their counters in the
// observer's registry, and every later event of those kinds counts. Each
// layer names the kinds it emits when it is wired. Without a registry (or
// observer) nothing counts.
//
//lint:coldpath instrumentation wiring is per-run setup
func (in *Instrumented) Count(kinds ...obs.Kind) {
	if in != nil && in.reg != nil {
		in.counts.Register(in.reg, kinds...)
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
	if in.nowSet && in.simNow != nil {
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
	in.counts.Count(obs.KindArrival, "")
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
	in.counts.Count(obs.KindDispatch, "")
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
	in.counts.Count(obs.KindPreempt, "")
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
	in.counts.Count(obs.KindCompletion, "")
	in.now, in.nowSet = now, true
	if in.reg != nil {
		in.done.Observe(tard, t.FinishTime-t.Arrival)
	}
	if tard > 0 {
		in.counts.Count(obs.KindDeadlineMiss, "")
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

// Note counts and stages one decision of a layer beyond the decision loop
// at now: the fault, admission and validation events of a kernel and the
// cluster router's own. t is the subject transaction, or nil for an event
// about a backend (Txn -1, no deadline). A nil observer is a no-op.
func (in *Instrumented) Note(now float64, kind obs.Kind, t *txn.Transaction, remaining float64, detail string) {
	if in == nil {
		return
	}
	in.counts.Count(kind, detail)
	if in.emit {
		e := in.stage()
		e.Time, e.Kind, e.Txn, e.Workflow = now, kind, -1, -1
		e.Deadline, e.Remaining, e.Tardiness = 0, remaining, 0
		if t != nil {
			e.Txn, e.Deadline = t.ID, t.Deadline
		}
		if detail != "" {
			e.Detail = detail
		}
	}
}

// Emit implements obs.Sink, the staged entry Sink returns: it counts and
// stages an out-of-band event, keeping it in stream order with the
// decision-loop events: policies and the SLO engine emit from inside the
// run loop, after the kernel's observer call for the same decision has
// returned.
func (in *Instrumented) Emit(ev obs.Event) {
	in.counts.Count(ev.Kind, ev.Detail)
	if in.emit {
		*in.stage() = ev
	}
}
