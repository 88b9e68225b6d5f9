package contention

import (
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/txn"
)

// DefaultWindow is the default probe depth of a Deferring wrapper: how many
// queue positions past a predicted-conflicting head the wrapper searches
// for a non-conflicting transaction to steal.
const DefaultWindow = 8

// Deferring wraps any scheduling policy with conflict-aware dispatch (the
// "CA-" policy family, docs/CONTENTION.md): when the wrapped policy's
// chosen head is predicted to conflict with a busy transaction — one
// checked out on a server, or one preempted mid-incarnation whose read
// snapshot is still open — the wrapper probes up to window further
// candidates (NewDeferring) in the policy's own preference order and steals
// the first non-conflicting one; the skipped candidates keep their places in
// the policy's order. Predicted conflict is read/write overlap in either
// direction: dispatching the candidate could invalidate the busy
// transaction's open reads, or the busy transaction's eventual commit could
// invalidate the candidate's.
//
// The wrapper is work-conserving: when every probed candidate conflicts it
// dispatches the policy's original head anyway, so a CA- policy never
// idles a server the base policy would have used. Deferral decisions are a
// pure function of the wrapped policy's deterministic order and the busy
// sets, so CA- runs replay bit-identically.
//
// The probe rule lives in Accept, the wrapper's sched.Acceptor. When the
// wrapped policy has a sched.Decider, the wrapper settles a decision point
// in one call to it with itself as the acceptor: the policy walks its own
// order without checking candidates out and handing them back. Its Next
// offers the policy's Next calls to the same Accept, for the decisions the
// policy's Decider declines and for a policy without one, whose skipped
// candidates go back through its OnPreempt. Both give the same picks, busy
// counts and conflict_defer events.
//
// Deferral pays off when parallel servers (or preemption interleavings)
// would open conflicting incarnations concurrently; at hot-spot extremes
// where nearly every pair conflicts, the work-conserving fallback keeps it
// from doing worse than the base policy by much, but it cannot win there —
// see docs/CONTENTION.md for the measured operating envelope.
type Deferring struct {
	inner   sched.Scheduler
	decider sched.Decider // inner's, or nil
	window  int
	name    string
	sink    obs.Sink
	set     *txn.Set // the set Init was given, whose key sets the probes read

	// busy[id] reports whether transaction id is busy: checked out through
	// Next and not yet returned via OnPreempt/OnCompletion, or queued with
	// partial progress — its incarnation began at an earlier dispatch and
	// its read snapshot stays open until it completes or is rewound
	// (validation failure, crash). Every protocol call decides the flag
	// outright: Next sets it, OnPreempt sets it to "made progress",
	// OnCompletion clears it.
	busy []bool
	// readers[k] and writers[k] count the busy transactions that read or
	// write key k.
	readers, writers []int32
	// cand holds the candidates the current probe skipped, in probe order
	// (at most window+1).
	cand []*txn.Transaction
	// The record of one decision, kept until it is settled: jumped holds
	// the candidates the steals so far jumped past, in event order; marked
	// holds the picks Picked made busy.
	jumped, marked []*txn.Transaction
}

// NewDeferring wraps inner with conflict-aware dispatch. A non-positive
// window selects DefaultWindow.
//
//lint:coldpath policy construction is per-run setup
func NewDeferring(inner sched.Scheduler, window int) *Deferring {
	if window <= 0 {
		window = DefaultWindow
	}
	// One buffer backs the probe's candidates and Decide's record, which
	// grow past it only in a decision that jumps past more than 2·(window+1)
	// candidates or marks more than window+1 picks.
	w := window + 1
	buf := make([]*txn.Transaction, 4*w)
	return &Deferring{
		inner:   inner,
		decider: sched.DeciderOf(inner),
		window:  window,
		name:    "CA-" + inner.Name(),
		cand:    buf[:0:w],
		jumped:  buf[w : w : 3*w],
		marked:  buf[3*w : 3*w],
	}
}

// Name implements sched.Scheduler.
func (d *Deferring) Name() string { return d.name }

// Init implements sched.Scheduler.
//
//lint:coldpath per-run setup: the busy-state and per-key tables are reset before the event loop
func (d *Deferring) Init(set *txn.Set) {
	d.set = set
	d.busy = sched.Zeroed(d.busy, set.Len())
	span := keySpan(set)
	d.readers = sched.Zeroed(d.readers, span)
	d.writers = sched.Zeroed(d.writers, span)
	d.cand = d.cand[:0]
	d.inner.Init(set)
}

// SetSink implements sched.SinkSetter: conflict_defer events join the
// instrumented stream, and the sink propagates to the wrapped policy so
// its internal events (ASETS* aging, mode switches) keep flowing.
func (d *Deferring) SetSink(s obs.Sink) {
	d.sink = s
	if ss, ok := d.inner.(sched.SinkSetter); ok {
		ss.SetSink(s)
	}
}

// OnArrival implements sched.Scheduler.
func (d *Deferring) OnArrival(now float64, t *txn.Transaction) {
	d.inner.OnArrival(now, t)
}

// Next implements sched.Scheduler: one probe, offering the inner policy's
// Next calls to Accept. The candidates it did not pick go back to the inner
// policy in probe order; their keys and remaining work are unchanged, so
// deterministic policies restore them to their exact queue positions.
func (d *Deferring) Next(now float64) *txn.Transaction {
	head := d.inner.Next(now)
	if head == nil {
		return nil
	}
	d.cand, d.jumped, d.marked = d.cand[:0], d.jumped[:0], d.marked[:0]
	pick := head
	for c := head; c != nil; c = d.inner.Next(now) {
		take, stop := d.Accept(c)
		if take {
			pick = c
		}
		if take || stop {
			break
		}
	}
	for _, c := range d.cand {
		if c != pick {
			d.inner.OnPreempt(now, c)
		}
	}
	d.Picked(pick)
	d.emitJumped(now)
	return pick
}

// Decide implements sched.Decider over the inner policy's Decider, with the
// wrapper as the acceptor: it marks the running transactions busy as
// OnPreempt would, then lets the policy decide. On an answer it emits the
// conflict_defer events Next's probes would have emitted; on a decline it
// clears the busy marks of the picks and marks the running transactions busy
// again, as checked out, leaving the wrapper as it was before the call.
//
//lint:hotpath
func (d *Deferring) Decide(now float64, running []*txn.Transaction, servers int, acc sched.Acceptor, picks []*txn.Transaction) ([]*txn.Transaction, bool) {
	if d.decider == nil || acc != nil {
		return picks, false
	}
	for _, t := range running {
		d.setBusy(t, t.Remaining < t.Length)
	}
	d.cand, d.jumped, d.marked = d.cand[:0], d.jumped[:0], d.marked[:0]
	picks, ok := d.decider.Decide(now, running, servers, d, picks)
	if !ok {
		for _, t := range d.marked {
			d.setBusy(t, false)
		}
		for _, t := range running {
			d.setBusy(t, true)
		}
		return picks, false
	}
	d.emitJumped(now)
	return picks, true
}

// Accept implements sched.Acceptor: it takes a candidate predicted not to
// conflict with a busy transaction and skips the others, remembering them;
// the skip that brings them past the window stops the probe.
func (d *Deferring) Accept(t *txn.Transaction) (take, stop bool) {
	if !d.conflictsBusy(t) {
		return true, false
	}
	//lint:ignore hotpath-alloc a probe skips at most window+1 candidates, cand's capacity
	d.cand = append(d.cand, t)
	return false, len(d.cand) > d.window
}

// Picked implements sched.Acceptor: t becomes busy, as a pick of Next does,
// and a steal — a pick other than the probe's skipped first candidate —
// records the candidates it jumped past.
func (d *Deferring) Picked(t *txn.Transaction) {
	if len(d.cand) > 0 && d.cand[0] != t {
		//lint:ignore hotpath-alloc starts in the buffer NewDeferring makes, grows at most to the most candidates one decision jumps past, then is reused
		d.jumped = append(d.jumped, d.cand...)
	}
	d.cand = d.cand[:0]
	if !d.busy[t.ID] {
		//lint:ignore hotpath-alloc starts in the buffer NewDeferring makes, grows at most to the server count, then is reused
		d.marked = append(d.marked, t)
		d.setBusy(t, true)
	}
}

// emitJumped emits one conflict_defer event per candidate in jumped.
func (d *Deferring) emitJumped(now float64) {
	if d.sink == nil {
		return
	}
	for _, c := range d.jumped {
		d.sink.Emit(obs.Event{
			Time: now, Kind: obs.KindConflictDefer, Txn: c.ID, Workflow: -1,
			Deadline: c.Deadline, Remaining: c.Remaining,
		})
	}
}

// OnPreempt implements sched.Scheduler.
func (d *Deferring) OnPreempt(now float64, t *txn.Transaction) {
	// A preempted transaction with partial progress still holds its read
	// snapshot (the incarnation spans preemptions); one rewound to full
	// length (validation failure, crash loss) lost it. The strict < holds
	// exactly when progress was made: rewinds restore Remaining = Length
	// bit-for-bit.
	d.setBusy(t, t.Remaining < t.Length)
	d.inner.OnPreempt(now, t)
}

// OnCompletion implements sched.Scheduler.
func (d *Deferring) OnCompletion(now float64, t *txn.Transaction) {
	d.setBusy(t, false)
	d.inner.OnCompletion(now, t)
}

// setBusy sets t's busy flag, entering t's keys into the per-key counts
// when it becomes busy and withdrawing them when it stops being busy.
func (d *Deferring) setBusy(t *txn.Transaction, busy bool) {
	if d.busy[t.ID] == busy {
		return
	}
	d.busy[t.ID] = busy
	delta := int32(-1)
	if busy {
		delta = 1
	}
	for _, k := range d.set.Reads(t.ID) {
		d.readers[k] += delta
	}
	for _, k := range d.set.Writes(t.ID) {
		d.writers[k] += delta
	}
}

// conflictsBusy reports whether dispatching c is predicted to produce a
// validation failure: some other busy transaction reads a key c writes (c's
// commit would invalidate its open reads) or writes a key c reads (its
// commit would invalidate c's). Write-write overlap alone is not predicted
// to fail — only read sets are validated. When c is itself busy its own
// entries are discounted, so a transaction never conflicts with itself
// (read-your-own-writes included).
func (d *Deferring) conflictsBusy(c *txn.Transaction) bool {
	self := d.busy[c.ID]
	reads, writes := d.set.Reads(c.ID), d.set.Writes(c.ID)
	return othersHold(d.readers, writes, reads, self) ||
		othersHold(d.writers, reads, writes, self)
}

// othersHold reports whether count[k] has a holder other than c for some k
// in keys. c holds count[k] itself exactly when it is busy (self) and k is
// also in own; both sets are sorted, so one merge walk decides that.
func othersHold(count []int32, keys, own []txn.Key, self bool) bool {
	j := 0
	for _, k := range keys {
		n := count[k]
		if self {
			for j < len(own) && own[j] < k {
				j++
			}
			if j < len(own) && own[j] == k {
				n--
			}
		}
		if n > 0 {
			return true
		}
	}
	return false
}

var _ sched.Scheduler = (*Deferring)(nil)
var _ sched.SinkSetter = (*Deferring)(nil)
var _ sched.Decider = (*Deferring)(nil)
var _ sched.Acceptor = (*Deferring)(nil)
