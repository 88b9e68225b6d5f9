package sched

import (
	"sync"

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

// histBatchSize is the per-histogram insert buffer length: completion
// observations accumulate in a fixed inline array and flush under one
// histogram lock when the buffer fills or Flush drains.
const histBatchSize = 256

// evBatchSize is the event staging buffer length: emitted events accumulate
// in a fixed inline array and reach the sink chain through one
// obs.Emitter.EmitBatch call (one Ring lock acquisition per batch) when the
// buffer fills or Flush drains. Delivery order is exactly emission order,
// so batching is invisible to every sink fold.
const evBatchSize = 128

// histBatch is a fixed-capacity insert buffer for one registry histogram.
// Values reach the histogram in exact insertion order whether they leave via
// a full-buffer flush or Flush, so the running sum stays bit-identical to
// unbatched observation.
type histBatch struct {
	n   int
	buf [histBatchSize]float64
}

// push buffers v, flushing into h when the buffer fills.
func (b *histBatch) push(h *obs.Histogram, v float64) {
	b.buf[b.n] = v
	b.n++
	if b.n == histBatchSize {
		h.ObserveBatch(b.buf[:])
		b.n = 0
	}
}

// flush drains any pending values into h.
func (b *histBatch) flush(h *obs.Histogram) {
	if b.n > 0 {
		h.ObserveBatch(b.buf[:b.n])
		b.n = 0
	}
}

// Instrumented is the unified observability layer's decision-loop observer:
// the simulator kernel calls it at its own call sites — arrival, dispatch,
// preemption, completion — and it emits a typed obs.Event and bumps the
// registry metrics for each. Every engine drives every policy through the
// kernel, so observing there covers all policies and engines without
// per-policy edits. One observer may serve several kernels driven from one
// goroutine (the instances of a cluster run): their events then form one
// stream in global emission order.
//
// The event path is built for zero steady-state allocation: emissions write
// into a fixed inline staging buffer (sinks capture by copy — the
// obs.SharedSink contract), the sink chain is devirtualized into an
// obs.Emitter function table at wiring time, batches leave through
// obs.Emitter.EmitBatch when the buffer fills or Flush drains, and histogram
// observations batch through fixed inline buffers drained the same way.
// Out-of-band emitters — policies, the fault and contention recorders, the
// SLO engine, the cluster router — stage into the same buffer through Sink,
// so delivery stays in true emission order while it is batched.
type Instrumented struct {
	em   *obs.Emitter
	emit bool     // em has at least one endpoint
	sink obs.Sink // counting shim: the staged entry for out-of-band emitters

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

	// Locally accumulated registry updates: the run loop is single-goroutine,
	// so counts accumulate in plain fields and reach the shared atomic
	// counters in one Add each per Flush, instead of one atomic RMW per
	// decision. Mid-run registry reads lag by at most one drain interval
	// (the executor drains every loop iteration; deterministic outputs are
	// always post-flush).
	nArrivals       uint64
	nDispatches     uint64
	nPreemptions    uint64
	nCompletions    uint64
	nMisses         uint64
	nAging          uint64
	nModeSwitches   uint64
	nConflictDefers uint64
	nowVal          float64
	nowSet          bool

	tardBuf histBatch
	respBuf histBatch
}

// instrumentedPool recycles observers between runs. The observer is the
// largest per-run allocation of an enabled pipeline (~16KB of inline staging
// buffers), so short benchmark and sweep runs otherwise pay its allocation,
// zeroing and GC-mark cost on every sim.Run. Entries enter the pool only
// through Release, which drains them first, so a pooled observer is always in
// the post-flush state (empty buffers, zero local counts).
var instrumentedPool = sync.Pool{}

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
	em := obs.NewEmitter(sink)
	in, _ := instrumentedPool.Get().(*Instrumented)
	if in == nil {
		in = &Instrumented{}
	}
	in.em = em
	in.emit = em.Sinks() > 0
	in.arrivals = reg.Counter(MetricArrivals, "transactions submitted to the scheduler")
	in.dispatches = reg.Counter(MetricDispatches, "transactions checked out to a server")
	in.preemptions = reg.Counter(MetricPreemptions, "transactions returned unfinished after running")
	in.completions = reg.Counter(MetricCompletions, "transactions finished")
	in.misses = reg.Counter(MetricMisses, "completions past the deadline")
	in.aging = reg.Counter(MetricAging, "balance-aware T_old activations")
	in.modeSwitches = reg.Counter(MetricModeSwitch, "EDF/HDF scheduling-entity migrations")
	in.conflictDefers = reg.Counter(MetricConflictDefers, "queued transactions deferred by conflict-aware dispatch")
	in.tardiness = reg.Histogram(MetricTardiness, "tardiness of completed transactions", 2)
	in.response = reg.Histogram(MetricResponse, "response time (finish - arrival) of completed transactions", 2)
	in.simNow = reg.Gauge(MetricSimNow, "simulated time of the latest scheduler callback")
	// The staged entry points at the observer itself, so a recycled observer
	// reuses its shim.
	if in.sink == nil {
		in.sink = &innerSink{in: in}
	}
	return in
}

// Sink returns the observer's staged event entry: a sink that stages into the
// same buffer as the decision-loop calls and counts policy-internal events,
// so out-of-band emitters interleave with them in true emission order. A nil
// observer returns nil.
func (in *Instrumented) Sink() obs.Sink {
	if in == nil {
		return nil
	}
	return in.sink
}

// Release drains the observer and recycles it for a future Instrument call.
// Callers may invoke it only when the run is over and nothing that could
// still emit through it — its Sink, a SinkSetter policy — survives. A nil
// observer is a no-op.
//
//lint:coldpath release is per-run teardown
func (in *Instrumented) Release() {
	if in == nil {
		return
	}
	in.Flush() // idempotent: guarantees the pooled state is post-flush
	in.em = nil
	instrumentedPool.Put(in)
}

// Flush delivers staged events to the sink chain, drains the batched
// histogram buffers, and publishes the locally accumulated counter deltas,
// so a registry snapshot or sink read sees every observation so far. A nil
// observer is a no-op.
func (in *Instrumented) Flush() {
	if in == nil {
		return
	}
	if in.evN > 0 {
		in.flushEvents()
	}
	in.tardBuf.flush(in.tardiness)
	in.respBuf.flush(in.response)
	in.flushCounts()
}

// flushCounts publishes the locally accumulated counts to the shared
// registry handles: one atomic add per nonzero counter per drain.
func (in *Instrumented) flushCounts() {
	if in.nArrivals > 0 {
		in.arrivals.Add(in.nArrivals)
		in.nArrivals = 0
	}
	if in.nDispatches > 0 {
		in.dispatches.Add(in.nDispatches)
		in.nDispatches = 0
	}
	if in.nPreemptions > 0 {
		in.preemptions.Add(in.nPreemptions)
		in.nPreemptions = 0
	}
	if in.nCompletions > 0 {
		in.completions.Add(in.nCompletions)
		in.nCompletions = 0
	}
	if in.nMisses > 0 {
		in.misses.Add(in.nMisses)
		in.nMisses = 0
	}
	if in.nAging > 0 {
		in.aging.Add(in.nAging)
		in.nAging = 0
	}
	if in.nModeSwitches > 0 {
		in.modeSwitches.Add(in.nModeSwitches)
		in.nModeSwitches = 0
	}
	if in.nConflictDefers > 0 {
		in.conflictDefers.Add(in.nConflictDefers)
		in.nConflictDefers = 0
	}
	if in.nowSet {
		in.simNow.Set(in.nowVal)
		in.nowSet = false
	}
}

// flushEvents delivers the staged events through the emitter's batch path.
func (in *Instrumented) flushEvents() {
	in.em.EmitBatch(in.evBuf[:in.evN])
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
	in.nArrivals++
	in.nowVal, in.nowSet = now, true
	if in.emit {
		e := in.stage()
		e.Time, e.Kind, e.Txn, e.Workflow = now, obs.KindArrival, t.ID, -1
		e.Deadline, e.Remaining, e.Tardiness = t.Deadline, t.Remaining, 0
	}
}

// Dispatch observes t checked out onto a server at now; inst, when not
// empty, names the instance in the event's detail.
func (in *Instrumented) Dispatch(now float64, t *txn.Transaction, inst string) {
	in.nDispatches++
	in.nowVal, in.nowSet = now, true
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
	in.nPreemptions++
	in.nowVal, in.nowSet = now, true
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
	in.nCompletions++
	in.nowVal, in.nowSet = now, true
	in.tardBuf.push(in.tardiness, tard)
	in.respBuf.push(in.response, t.FinishTime-t.Arrival)
	if tard > 0 {
		in.nMisses++
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

// innerSink stages out-of-band events into the observer's event buffer while
// counting the policy-internal ones in the registry, keeping them in stream
// order with the decision-loop events: policies emit from inside scheduler
// callbacks on the run-loop goroutine, after the kernel's observer call for
// the same decision has returned.
type innerSink struct {
	in *Instrumented
}

// Emit implements obs.Sink.
func (s *innerSink) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindAging:
		s.in.nAging++
	case obs.KindModeSwitch:
		s.in.nModeSwitches++
	case obs.KindConflictDefer:
		s.in.nConflictDefers++
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
		panic("sched: innerSink received unknown event kind")
	}
	if s.in.emit {
		if s.in.evN == evBatchSize {
			s.in.flushEvents()
		}
		s.in.evBuf[s.in.evN] = ev
		s.in.evN++
	}
}
