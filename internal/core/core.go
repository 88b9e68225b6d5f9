// Package core implements ASETS*, the paper's primary contribution: a
// parameter-free adaptive scheduling policy for web transactions that
// integrates EDF with HDF (which reduces to SRPT under unit weights),
// operates at the transaction level or the workflow level as the workload
// demands, and optionally trades average-case for worst-case performance via
// a deadline-driven aging scheme (the balance-aware variant of Section
// III-D).
//
// One engine covers every variant in the paper:
//
//   - Transaction-level ASETS* (Section III-A): run the engine on an
//     independent workload — every transaction is its own workflow, the
//     head and representative collapse onto the transaction itself, and the
//     decision rule reduces exactly to Eq. (1).
//   - Workflow-level ASETS* (Section III-B) and the general weighted case
//     (Section III-C, Fig. 7): the default — scheduling entities are the
//     dependency closures of root transactions, classified into the
//     EDF-List and HDF-List by their representative transactions.
//   - The Ready baseline (Section III-B): singleton grouping over a
//     dependent workload, i.e. the engine sees dependent transactions only
//     once they become ready.
//   - Balance-aware ASETS* (Section III-D): time-based or count-based
//     activation of T_old, the pending ready transaction with the highest
//     weight-to-deadline ratio.
package core

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/txn"
)

// Rule selects which of the paper's two decision formulas arbitrates between
// the top of the EDF-List and the top of the HDF-List.
type Rule int

const (
	// RuleFig7 is the canonical rule from the pseudo-code in Fig. 7:
	// run the EDF winner E iff
	//   r_head(E) * w_rep(H)  <  (r_head(H) - s_rep(E)) * w_rep(E).
	// With unit weights this is exactly Eq. (1); with singleton workflows
	// head = rep = the transaction itself.
	RuleFig7 Rule = iota
	// RuleSymmetric is the variant stated in prose in Section III-B:
	// run E iff r_head(E) - s_rep(H) <= r_head(H) - s_rep(E), scaled by the
	// representative weights in the weighted case. DESIGN.md discusses the
	// discrepancy; an ablation bench compares the two.
	RuleSymmetric
)

// Activation selects the aging mode of balance-aware ASETS*.
type Activation int

const (
	// ActivationNone disables aging (plain ASETS*).
	ActivationNone Activation = iota
	// ActivationTime runs T_old every 1/rate simulated time units.
	ActivationTime
	// ActivationCount runs T_old every 1/rate scheduling points.
	ActivationCount
)

// Option customizes an ASETS* instance.
type Option func(*config)

type config struct {
	name            string
	rule            Rule
	singleton       bool
	activation      Activation
	rate            float64
	headExcludedRep bool
}

// WithRule selects the decision rule (default RuleFig7).
func WithRule(r Rule) Option { return func(c *config) { c.rule = r } }

// WithName overrides the display name used in tables.
func WithName(name string) Option { return func(c *config) { c.name = name } }

// WithHeadExcludedRep computes each workflow's representative over the
// pending members excluding the current head transaction — the alternative
// reading of the paper's Example 4, in which the head and representative of
// a two-transaction workflow are distinct transactions. The formal
// Definition 9 (over all remaining transactions) stays the default; the
// abl-rep experiment quantifies the difference.
func WithHeadExcludedRep() Option { return func(c *config) { c.headExcludedRep = true } }

// withSingletonGrouping makes every transaction its own scheduling entity,
// hiding dependent transactions until they become ready — the paper's Ready
// baseline (NewReady) when the workload has precedence constraints.
func withSingletonGrouping() Option { return func(c *config) { c.singleton = true } }

// WithTimeActivation enables balance-aware aging that runs T_old every
// 1/rate time units. The paper sweeps rate over [0.002, 0.01].
func WithTimeActivation(rate float64) Option {
	return func(c *config) { c.activation = ActivationTime; c.rate = rate }
}

// WithCountActivation enables balance-aware aging that runs T_old every
// 1/rate scheduling points. The paper sweeps rate over [0.02, 0.1].
func WithCountActivation(rate float64) Option {
	return func(c *config) { c.activation = ActivationCount; c.rate = rate }
}

// entity is one scheduling unit: a workflow together with its cached
// representative and queue handles. Entities live in exactly one of the two
// priority lists while they have at least one ready member; EDF-resident
// entities additionally sit in the expiry heap that migrates them to the
// HDF-List the moment their representative can no longer meet its deadline.
// The workflow and the heap items are embedded by value: an entity is carved
// in place from a chunk that never moves, so the heaps point straight into
// it.
type entity struct {
	wf    txn.Workflow
	rep   txn.Representative
	item  pq.Item[*entity]
	exp   pq.Item[*entity]
	one   [1]*txn.Transaction // pending storage of a one-member workflow
	next  *entity             // the free list's link while recycled
	ready int32               // number of ready members
	inEDF bool
}

// edfBefore orders the EDF-List: earliest representative deadline first.
func edfBefore(x, y *entity) bool {
	//lint:ignore floatcmp comparator tie-break: exact equality only decides which key breaks the tie, both orders are valid schedules
	if x.rep.Deadline != y.rep.Deadline {
		return x.rep.Deadline < y.rep.Deadline
	}
	return x.wf.ID < y.wf.ID
}

// hdfBefore orders the HDF-List: highest representative density first, by
// cross-multiplication — w_x/r_x > w_y/r_y iff w_x*r_y > w_y*r_x (remaining
// times are strictly positive).
func hdfBefore(x, y *entity) bool {
	dx := x.rep.Weight * y.rep.Remaining
	dy := y.rep.Weight * x.rep.Remaining
	if dx != dy {
		return dx > dy
	}
	return x.wf.ID < y.wf.ID
}

// expiresBefore orders the expiry heap: earliest expiry time first.
func expiresBefore(x, y *entity) bool {
	ex, ey := x.expiryTime(), y.expiryTime()
	if ex != ey {
		return ex < ey
	}
	return x.wf.ID < y.wf.ID
}

// expiryTime is the instant the entity stops qualifying for the EDF-List:
// it belongs there iff now + r_rep <= d_rep, i.e. iff now <= d_rep - r_rep.
func (e *entity) expiryTime() float64 { return e.rep.Deadline - e.rep.Remaining }

// enqueued reports whether the entity currently sits in either list.
func (e *entity) enqueued() bool { return e.item.InHeap() }

// ASETSStar is the scheduler. Construct with New; the zero value is unusable.
type ASETSStar struct {
	cfg config

	set    *txn.Set
	rt     sched.ReadyTracker
	groups txn.Grouping
	// memberOf holds one entity pointer per membership (transaction,
	// workflow). Under a singleton grouping transaction id's only
	// membership is memberOf[id]: nil until the entity materializes, the
	// first time id becomes ready, and nil again once id completes and its
	// entity is recycled. Otherwise the memberships of id are
	// memberOf[memberStart[id]:memberStart[id+1]], compressed-sparse-row,
	// and Init builds every entity.
	memberStart []int32
	memberOf    []*entity

	// chunk is the entity storage in use, filled up to its length. Lazy
	// entities come from the free list first and from a chunk only when the
	// list is empty, so a run carves no more entities than are ever live at
	// once. Chunks grow 4x and are capped at the set size less the entities
	// carved; a chunk never moves, and nothing but memberOf and the free
	// list refers to it.
	chunk  []entity
	carved int     // entities carved fresh from a chunk
	free   *entity // finished singleton entities, linked through next

	edf    *pq.Heap[*entity] // ordered by representative deadline
	hdf    *pq.Heap[*entity] // ordered by representative density (weight/remaining)
	expiry *pq.Heap[*entity] // EDF residents ordered by expiry time

	// edfWalk and hdfWalk walk the two lists for Decide.
	edfWalk, hdfWalk listWalk

	// old holds the candidates for T_old, the ready transactions that are
	// not checked out, by highest weight-to-deadline ratio; oldItem[id] is
	// transaction id's handle. Both are nil unless balance-aware activation
	// is on.
	old        *pq.Heap[*txn.Transaction]
	oldItem    []pq.Item[*txn.Transaction]
	checkedOut []bool // transactions handed out via Next and not yet returned

	schedPoints    int
	nextActivation float64

	// sink, when non-nil, receives the policy-internal decision events the
	// generic interface-level instrumentation cannot see: balance-aware
	// aging activations and EDF→HDF entity migrations. Installed through
	// SetSink (the sched.SinkSetter seam used by sched.Instrument).
	sink obs.Sink
}

// SetSink installs the observation sink for policy-internal events. A nil
// sink (the default) disables emission entirely.
func (a *ASETSStar) SetSink(sink obs.Sink) { a.sink = sink }

// Compile-time check that ASETSStar satisfies the scheduler contract.
var _ sched.Scheduler = (*ASETSStar)(nil)

// New constructs an ASETS* scheduler. With no options it is the general
// workflow-level weighted policy of Fig. 7, which self-reduces to every
// special case the paper describes.
func New(opts ...Option) *ASETSStar {
	cfg := config{rule: RuleFig7}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.activation != ActivationNone && cfg.rate <= 0 {
		panic(fmt.Sprintf("core: balance-aware activation rate %v must be positive", cfg.rate))
	}
	if cfg.name == "" {
		switch {
		case cfg.singleton:
			cfg.name = "Ready"
		case cfg.activation == ActivationTime:
			cfg.name = fmt.Sprintf("ASETS*-BAL(t=%g)", cfg.rate)
		case cfg.activation == ActivationCount:
			cfg.name = fmt.Sprintf("ASETS*-BAL(c=%g)", cfg.rate)
		default:
			cfg.name = "ASETS*"
		}
	}
	a := &ASETSStar{
		cfg:    cfg,
		edf:    pq.NewHeap[*entity](edfBefore),
		hdf:    pq.NewHeap[*entity](hdfBefore),
		expiry: pq.NewHeap[*entity](expiresBefore),
	}
	if cfg.activation != ActivationNone {
		a.old = pq.NewHeap[*txn.Transaction](olderThan)
	}
	return a
}

// NewReady constructs the Ready baseline of Section III-B: transaction-level
// ASETS* preceded by a Wait queue, realized as singleton grouping.
func NewReady() *ASETSStar { return New(withSingletonGrouping()) }

// Name implements sched.Scheduler.
func (a *ASETSStar) Name() string { return a.cfg.name }

// Init implements sched.Scheduler. It reuses the membership index, the
// checked-out flags, the ready tracker, the aging handles and the entity
// chunk of an earlier Init when they are large enough, and empties the
// heaps New built.
//
//lint:coldpath per-run setup: the grouping and membership index are built, and the heaps emptied, before the event loop
func (a *ASETSStar) Init(set *txn.Set) {
	a.set = set
	a.rt.Reset(set)

	if a.cfg.singleton {
		a.groups = txn.GroupSingletons(set)
	} else {
		a.groups = txn.GroupWorkflows(set)
	}
	n := set.Len()
	a.memberStart, a.carved, a.free = nil, 0, nil
	if a.groups.Singleton() {
		a.memberOf = sched.Zeroed(a.memberOf, n)
		// Entities are carved from zeroed storage: the last chunk of an
		// earlier Init is zeroed and carved from again.
		a.chunk = sched.Zeroed(a.chunk, cap(a.chunk))[:0]
	} else {
		a.buildWorkflows(n)
	}

	a.edf.Clear()
	a.hdf.Clear()
	a.expiry.Clear()

	for _, l := range []*listWalk{&a.edfWalk, &a.hdfWalk} {
		l.seen, l.run = l.seenBuf[:0], l.runBuf[:0]
	}
	a.edfWalk.before, a.hdfWalk.before = edfBefore, hdfBefore

	if a.old != nil {
		a.old.Clear()
		a.oldItem = sched.Zeroed(a.oldItem, n)
		for i := range a.oldItem {
			a.oldItem[i].Value = set.ByID(txn.ID(i))
		}
	}
	a.checkedOut = sched.Zeroed(a.checkedOut, n)
	a.schedPoints = 0
	if a.cfg.activation == ActivationTime {
		a.nextActivation = 1 / a.cfg.rate
	}
}

// members returns the entities whose workflow contains transaction id. Once
// id has been ready, every one of them is built.
func (a *ASETSStar) members(id txn.ID) []*entity {
	if a.memberStart == nil {
		return a.memberOf[id : id+1]
	}
	return a.memberOf[a.memberStart[id]:a.memberStart[id+1]]
}

// carve builds the entity of workflow w, every member pending, in the next
// slot of the current chunk. A nil pending keeps the pending set of a
// one-member workflow inside the entity.
func (a *ASETSStar) carve(w int, pending []*txn.Transaction) *entity {
	a.chunk = a.chunk[:len(a.chunk)+1]
	e := &a.chunk[len(a.chunk)-1]
	a.carved++
	if pending == nil {
		pending = e.one[:]
	}
	a.groups.Carve(a.set, w, &e.wf, pending)
	e.item.Value = e
	e.exp.Value = e
	return e
}

// buildWorkflows builds every entity of a workflow grouping and its
// compressed-sparse-row membership index over n transactions. Workflow
// groupings are built up front: only a single backend runs them (the
// cluster routes independent transactions only), and there every member
// becomes ready, so building lazily would only move the same allocations
// into the event loop.
func (a *ASETSStar) buildWorkflows(n int) {
	// Count each transaction's memberships and prefix-sum them into row
	// starts. Filling the rows in workflow order advances each start to the
	// next row's, so one shift restores them.
	start := make([]int32, n+1)
	slots := 0 // pending slots of the workflows with more than one member
	for w := range a.groups.Len() {
		for _, id := range a.groups.Members(w) {
			start[id+1]++
		}
		if size := a.groups.Size(w); size > 1 {
			slots += size
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	a.memberOf = sched.Zeroed(a.memberOf, int(start[n]))
	a.chunk = sched.Zeroed(a.chunk, a.groups.Len())[:0]
	pending := make([]*txn.Transaction, slots)
	for w := range a.groups.Len() {
		var own []*txn.Transaction
		if size := a.groups.Size(w); size > 1 {
			own, pending = pending[:size:size], pending[size:]
		}
		e := a.carve(w, own)
		for _, id := range e.wf.Members {
			a.memberOf[start[id]] = e
			start[id]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	a.memberStart = start
}

// materialize builds the entity of singleton workflow id when id first
// becomes ready. Until then id has not completed or been checked out, so
// the entity starts with its member pending and in neither list. A
// recycled entity is re-carved in place; a chunk is carved from only when
// the free list is empty.
func (a *ASETSStar) materialize(id txn.ID) *entity {
	e := a.free
	if e == nil {
		if len(a.chunk) == cap(a.chunk) {
			a.grow()
		}
		e = a.carve(int(id), nil)
	} else {
		a.free, e.next = e.next, nil
		a.groups.Carve(a.set, int(id), &e.wf, e.one[:])
	}
	a.memberOf[id] = e
	return e
}

// recycle puts the entity of finished singleton workflow id on the free
// list. It is out of both lists, and nothing but the free list refers to it
// once its memberOf slot is cleared.
func (a *ASETSStar) recycle(id txn.ID) {
	e := a.memberOf[id]
	a.memberOf[id] = nil
	e.next, a.free = a.free, e
}

// grow starts the next chunk of lazy entities: 4x the last, from 256, and
// capped at the set size less the entities carved. Every fresh carve materializes a
// transaction that never materialized before, so the cap is never zero when
// a chunk is needed, and a run makes O(log n) allocations here.
//
//lint:coldpath chunk growth: O(log n) allocations per run, amortized over the entities it carves
func (a *ASETSStar) grow() {
	size := max(4*cap(a.chunk), 256)
	a.chunk = make([]entity, 0, min(size, a.groups.Len()-a.carved))
}

// OnArrival implements sched.Scheduler.
func (a *ASETSStar) OnArrival(now float64, t *txn.Transaction) {
	if a.rt.Arrive(t) {
		a.markReady(now, t)
	}
}

// available reports whether t can be handed to a server right now: ready
// per the dependency tracker and not already checked out to another server.
// With a single server the checked-out transaction is never queried, so
// this coincides with plain readiness; with multiple servers it prevents
// two servers from receiving the same head transaction.
func (a *ASETSStar) available(t *txn.Transaction) bool {
	return a.rt.Ready(t) && !a.checkedOut[t.ID]
}

// markReady records that t became executable and surfaces its entities into
// the priority lists.
func (a *ASETSStar) markReady(now float64, t *txn.Transaction) {
	if a.old != nil && !a.oldItem[t.ID].InHeap() {
		a.old.Push(&a.oldItem[t.ID])
	}
	for _, e := range a.members(t.ID) {
		if e == nil {
			e = a.materialize(t.ID) // only a singleton grouping defers its entities
		}
		e.ready++
		if !e.enqueued() && !e.wf.Done() {
			a.enqueue(now, e)
			continue
		}
		// A newly ready member can change the head (DAG workflows), which
		// shifts the head-excluded representative; refresh in place.
		a.reposition(now, e)
	}
}

// repOf computes the entity's representative under the configured scope:
// Definition 9 over all pending members by default, or excluding the
// current head under WithHeadExcludedRep.
func (a *ASETSStar) repOf(e *entity) txn.Representative {
	if a.cfg.headExcludedRep {
		if h := e.wf.Head(a.available); h != nil {
			return e.wf.RepresentativeExcluding(h.ID)
		}
	}
	return e.wf.Representative()
}

// enqueue computes the entity's representative and inserts it into the list
// Definition 6/7 membership dictates.
func (a *ASETSStar) enqueue(now float64, e *entity) {
	e.rep = a.repOf(e)
	e.inEDF = e.rep.CanMeetDeadline(now)
	if e.inEDF {
		a.edf.Push(&e.item)
		a.expiry.Push(&e.exp)
	} else {
		a.hdf.Push(&e.item)
	}
}

// dequeue removes the entity from whichever structures hold it.
func (a *ASETSStar) dequeue(e *entity) {
	if e.item.InHeap() {
		e.item.Owner().Remove(&e.item)
	}
	if e.exp.InHeap() {
		a.expiry.Remove(&e.exp)
	}
}

// reposition refreshes the entity's representative and restores queue order
// after a member's remaining time or the pending set changed.
func (a *ASETSStar) reposition(now float64, e *entity) {
	if !e.enqueued() {
		return
	}
	e.rep = a.repOf(e)
	inEDF := e.rep.CanMeetDeadline(now)
	if inEDF != e.inEDF {
		a.dequeue(e)
		e.inEDF = inEDF
		if inEDF {
			a.edf.Push(&e.item)
			a.expiry.Push(&e.exp)
		} else {
			a.hdf.Push(&e.item)
		}
		return
	}
	e.item.Owner().Fix(&e.item)
	if e.exp.InHeap() {
		a.expiry.Fix(&e.exp)
	}
}

// migrate moves entities whose representatives can no longer meet their
// deadlines from the EDF-List to the HDF-List. A waiting entity's remaining
// time is constant, so it expires at the fixed instant d_rep - r_rep tracked
// by the expiry heap; migration is therefore O(log N) per moved entity.
func (a *ASETSStar) migrate(now float64) {
	for {
		top := a.expiry.Peek()
		if top == nil || top.Value.expiryTime() >= now {
			break
		}
		e := top.Value
		a.dequeue(e)
		e.inEDF = false
		a.hdf.Push(&e.item)
		if a.sink != nil {
			a.sink.Emit(obs.Event{
				Time: now, Kind: obs.KindModeSwitch, Txn: -1, Workflow: e.wf.ID,
				Deadline: e.rep.Deadline, Remaining: e.rep.Remaining,
				Detail: "edf->hdf",
			})
		}
	}
}

// OnPreempt implements sched.Scheduler: the checked-out transaction comes
// back unfinished with less remaining work; it re-enters the schedulable
// population and its entities refresh their representatives (less remaining
// work can only improve the density and remaining-time keys).
func (a *ASETSStar) OnPreempt(now float64, t *txn.Transaction) {
	a.checkedOut[t.ID] = false
	a.markReady(now, t)
}

// OnCompletion implements sched.Scheduler.
func (a *ASETSStar) OnCompletion(now float64, t *txn.Transaction) {
	// t was checked out by Next, so its entities' ready counts already
	// exclude it; only the pending sets and the dependency tracker change.
	a.unmarkOld(t)
	newly := a.rt.Complete(t)
	for _, e := range a.members(t.ID) {
		e.wf.Complete(t.ID)
		switch {
		case e.wf.Done() || e.ready == 0:
			a.dequeue(e)
		default:
			a.reposition(now, e)
		}
	}
	if a.memberStart == nil {
		a.recycle(t.ID) // a singleton workflow is done with its only member
	}
	for _, r := range newly {
		a.markReady(now, r)
	}
}

// Next implements sched.Scheduler: Fig. 7's decision procedure, preceded by
// lazy EDF-to-HDF migration and, in balance-aware mode, the T_old activation
// check.
func (a *ASETSStar) Next(now float64) *txn.Transaction {
	a.migrate(now)
	a.schedPoints++

	if t := a.activate(now); t != nil {
		if a.sink != nil {
			a.sink.Emit(obs.Event{
				Time: now, Kind: obs.KindAging, Txn: t.ID, Workflow: -1,
				Deadline: t.Deadline, Remaining: t.Remaining,
				Detail: "t_old",
			})
		}
		a.checkOut(now, t)
		return t
	}

	e := a.pickEntity(now)
	if e == nil {
		return nil
	}
	head := e.wf.Head(a.available)
	if head == nil {
		panic(fmt.Sprintf("core: enqueued workflow %d has no ready head (ready=%d)", e.wf.ID, e.ready))
	}
	a.checkOut(now, head)
	return head
}

// checkOut removes t from the schedulable population while a server runs
// it: it leaves the T_old candidate set and stops counting toward its
// entities' ready members (an entity whose only available member is running
// must not be offered to another server).
func (a *ASETSStar) checkOut(now float64, t *txn.Transaction) {
	a.checkedOut[t.ID] = true
	a.unmarkOld(t)
	for _, e := range a.members(t.ID) {
		e.ready--
		if e.ready == 0 {
			a.dequeue(e)
		} else {
			a.reposition(now, e)
		}
	}
}

// pickEntity arbitrates between the tops of the two lists.
func (a *ASETSStar) pickEntity(now float64) *entity {
	e, h := top(a.edf), top(a.hdf)
	switch {
	case e == nil:
		return h
	case h == nil:
		return e
	}
	headE, headH := e.wf.Head(a.available), h.wf.Head(a.available)
	if headE == nil || headH == nil {
		panic("core: enqueued workflow lost its ready head")
	}
	if a.runEDFFirst(now, e, h, headE, headH) {
		return e
	}
	return h
}

// top returns the entity at the top of a list, or nil when it is empty.
func top(l *pq.Heap[*entity]) *entity {
	if it := l.Peek(); it != nil {
		return it.Value
	}
	return nil
}

// Decide implements sched.Decider. Unless the replay would not be exact
// (see replayable), it migrates, as Next would, then replays the picks of
// the round trip without touching a heap: running's entities re-inserted,
// then one probe per server, each a merge of the EDF-List and the HDF-List
// in Fig. 7 order that skips the picks so far. Each list is visited in
// order once per decision (listWalk), merging its heap, walked without
// removal (pq.Walker), with its re-inserted entities; the probes read the
// visited prefix. Only then does Decide check out each pick that was not
// running and re-enqueue each running transaction that was not picked: a
// heap changes only for a real change. A blind re-decision that keeps its
// whole running set, the common case, is settled by keep alone.
//
// It also answers false where a visited candidate's round trip would not
// leave it as it was: an entity with several ready members, a head with
// several memberships, or, with an Acceptor, an entity a hand-back would put
// in the other list.
//
//lint:hotpath
func (a *ASETSStar) Decide(now float64, running []*txn.Transaction, servers int, acc sched.Acceptor, picks []*txn.Transaction) ([]*txn.Transaction, bool) {
	if !a.replayable(now, running) {
		return picks, false
	}
	a.migrate(now)
	if acc == nil && len(running) == servers {
		if kept, ok := a.keep(now, running, picks); ok {
			return kept, true
		}
	}
	a.edfWalk.reset(a.edf)
	a.hdfWalk.reset(a.hdf)
	for _, t := range running {
		if v := a.entityOf(t); v.inEDF {
			a.edfWalk.reinsert(v, t)
		} else {
			a.hdfWalk.reinsert(v, t)
		}
	}
	strict := acc != nil // a skipped candidate is handed back
	for len(picks) < servers {
		if strict {
			// The skipped candidates are back: probe from the top. Without
			// an acceptor every candidate so far was picked.
			a.edfWalk.at, a.hdfWalk.at = 0, 0
		}
		head, ok := a.step(now, strict)
		if !ok {
			return picks, false
		}
		if head.l == nil {
			break
		}
		pick := head
		if acc != nil {
			for c := head; c.l != nil; {
				take, stop := acc.Accept(c.visit().head)
				if take {
					pick = c
				}
				if take || stop {
					break
				}
				if c, ok = a.step(now, strict); !ok {
					return picks, false
				}
			}
			acc.Picked(pick.visit().head)
		}
		v := pick.visit()
		v.taken = true
		//lint:ignore hotpath-alloc the caller's buffer holds the servers' picks
		picks = append(picks, v.head)
	}
	for _, t := range picks {
		if !slices.Contains(running, t) {
			a.checkOut(now, t)
		}
	}
	for _, t := range running {
		if !slices.Contains(picks, t) {
			a.OnPreempt(now, t)
		}
	}
	return picks, true
}

// keep is Decide's fast path for a blind re-decision on as many servers as
// running transactions: it replays the picks as long as they come from
// running, each arbitrating between the better of the EDF-List top and the
// unpicked re-inserted EDF entities and the better of the HDF-List top and
// the unpicked re-inserted HDF entities. It reports false, with nothing
// changed, as soon as a list top would be picked. It reads only the two
// list tops, so a decision that keeps its running set, most blind
// re-decisions, sets up no walk.
func (a *ASETSStar) keep(now float64, running, picks []*txn.Transaction) ([]*txn.Transaction, bool) {
	e, h := top(a.edf), top(a.hdf)
	for len(picks) < len(running) {
		ce, cv := a.reinserted(e, true, running, picks)
		ch, cw := a.reinserted(h, false, running, picks)
		pick := cv
		if ch != nil && (ce == nil || !a.runEDFFirst(now, ce, ch, a.headOf(ce, cv), a.headOf(ch, cw))) {
			pick = cw
		}
		if pick == nil {
			return picks, false
		}
		//lint:ignore hotpath-alloc the caller's buffer holds the servers' picks
		picks = append(picks, pick)
	}
	return picks, true
}

// reinserted is the entity keep would take from one list (the EDF-List when
// edf): the better of the list's top, lead, and the re-inserted entities of
// running in that list not in picks, with the running transaction of a
// re-inserted one, or nil for lead.
func (a *ASETSStar) reinserted(lead *entity, edf bool, running, picks []*txn.Transaction) (*entity, *txn.Transaction) {
	best := lead
	var at *txn.Transaction
	for _, t := range running {
		v := a.entityOf(t)
		if v.inEDF == edf && !slices.Contains(picks, t) && (best == nil || (edf && edfBefore(v, best)) || (!edf && hdfBefore(v, best))) {
			best, at = v, t
		}
	}
	return best, at
}

// headOf is the head a pick of entity e would check out: the running
// transaction t of a re-inserted entity, or the list top's own head.
func (a *ASETSStar) headOf(e *entity, t *txn.Transaction) *txn.Transaction {
	if t != nil {
		return t
	}
	return e.wf.Head(a.available)
}

// step is one Next of a probe: it arbitrates between the first candidate of
// each list and returns the winner, which the probe has then passed, or no
// visit when both lists are exhausted. It returns false where the replay
// would not be exact.
func (a *ASETSStar) step(now float64, strict bool) (visitRef, bool) {
	e, ok := a.candidate(now, &a.edfWalk, strict)
	if !ok {
		return visitRef{}, false
	}
	h, ok := a.candidate(now, &a.hdfWalk, strict)
	switch {
	case !ok:
		return visitRef{}, false
	case h == nil && e == nil:
		return visitRef{}, true
	}
	l := &a.hdfWalk
	if h == nil || (e != nil && a.runEDFFirst(now, e.e, h.e, e.head, h.head)) {
		l = &a.edfWalk
	}
	l.at++
	return visitRef{l, l.at - 1}, true
}

// visitRef locates a visit, which a later visit may move: position i of
// l's visits, or none when l is nil.
type visitRef struct {
	l *listWalk
	i int
}

func (r visitRef) visit() *visit { return &r.l.seen[r.i] }

// candidate returns the probe's next candidate in l, the first visit at or
// after l.at that no earlier probe picked, visiting the next entity of the
// list when the probe has passed every visited one; nil when the list is
// exhausted. It returns false for a visited entity whose round trip would
// not leave it as it was.
func (a *ASETSStar) candidate(now float64, l *listWalk, strict bool) (*visit, bool) {
	for ; ; l.at++ {
		if l.at == len(l.seen) {
			v, ok := a.visitNext(now, l, strict)
			if v == nil || !ok {
				return nil, ok
			}
		}
		if v := &l.seen[l.at]; !v.taken {
			return v, true
		}
	}
}

// visitNext visits l's next entity: the better of its heap's next entity
// and its next re-inserted one. It returns nil when the list is exhausted,
// and false for a heap entity whose round trip would not leave it as it
// was.
func (a *ASETSStar) visitNext(now float64, l *listWalk, strict bool) (*visit, bool) {
	var e *entity
	if it := l.heap.Peek(); it != nil {
		e = it.Value
	}
	if l.ran < len(l.run) && (e == nil || l.before(l.run[l.ran].e, e)) {
		//lint:ignore hotpath-alloc starts in a buffer inside the scheduler, grows at most to the deepest walk of the run, and is reused by every later decision
		l.seen = append(l.seen, l.run[l.ran])
		l.ran++
		return &l.seen[len(l.seen)-1], true
	}
	if e == nil {
		return nil, true
	}
	head := e.wf.Head(a.available)
	if e.ready != 1 || (a.memberStart != nil && len(a.members(head.ID)) != 1) ||
		(strict && e.inEDF != e.rep.CanMeetDeadline(now)) {
		return nil, false
	}
	l.heap.Visit()
	//lint:ignore hotpath-alloc starts in a buffer inside the scheduler, grows at most to the deepest walk of the run, and is reused by every later decision
	l.seen = append(l.seen, visit{e: e, head: head})
	return &l.seen[len(l.seen)-1], true
}

// listWalk is one list's part of a Decide: the list's entities in order, as
// far as the probes reached, and the current probe's position among them.
// The list holds its heap's entities, which heap walks, and the re-inserted
// entities of the running transactions that OnPreempt would put in it,
// which run holds in list order; run[:ran] were visited. before is the
// list's order.
type listWalk struct {
	heap      pq.Walker[*entity]
	before    func(x, y *entity) bool
	seen, run []visit
	at, ran   int
	// The buffers seen and run start in, inside the scheduler's own
	// allocation; a deeper walk grows them once.
	seenBuf [48]visit
	runBuf  [8]visit
}

// visit is a visited entity with its head; taken marks an earlier probe's
// pick.
type visit struct {
	e     *entity
	head  *txn.Transaction
	taken bool
}

// reset starts a decision's walk of the list of heap h.
func (l *listWalk) reset(h *pq.Heap[*entity]) {
	l.heap.Reset(h)
	l.seen, l.run, l.at, l.ran = l.seen[:0], l.run[:0], 0, 0
}

// reinsert adds the re-inserted entity v of running transaction t to the
// walk, in list order.
func (l *listWalk) reinsert(v *entity, t *txn.Transaction) {
	//lint:ignore hotpath-alloc starts in a buffer inside the scheduler, grows at most to the server count, and is reused
	l.run = append(l.run, visit{e: v, head: t})
	for j := len(l.run) - 1; j > 0 && l.before(l.run[j].e, l.run[j-1].e); j-- {
		l.run[j], l.run[j-1] = l.run[j-1], l.run[j]
	}
}

// entityOf returns the entity of a transaction with one membership.
func (a *ASETSStar) entityOf(t *txn.Transaction) *entity { return a.members(t.ID)[0] }

// replayable reports whether Decide's replay is exact for running at now, and
// computes the representative and list of each running transaction's
// entity as OnPreempt would. The replay needs each entity to come back with
// exactly one available member, its running transaction, and to stay where
// OnPreempt's enqueue puts it, so it is not exact when:
//   - aging activation is on (T_old may jump the order);
//   - the representative excludes the head;
//   - a running transaction belongs to several entities, or two running
//     transactions share one;
//   - a running transaction's entity still holds another ready member;
//   - now + r_rep <= d_rep and d_rep - r_rep < now disagree in floating
//     point (the entity would enter the EDF-List and migrate at once).
//
// It writes only the cached representatives and list flags of dequeued
// entities, which OnPreempt recomputes.
func (a *ASETSStar) replayable(now float64, running []*txn.Transaction) bool {
	if a.cfg.activation != ActivationNone || a.cfg.headExcludedRep {
		return false
	}
	for i, t := range running {
		ms := a.members(t.ID)
		if len(ms) != 1 || ms[0].ready != 0 {
			return false
		}
		v := ms[0]
		for _, u := range running[:i] {
			if a.entityOf(u) == v {
				return false
			}
		}
		v.rep = v.wf.Representative()
		v.inEDF = v.rep.CanMeetDeadline(now)
		if v.inEDF == (v.expiryTime() < now) {
			return false
		}
	}
	return true
}

// runEDFFirst evaluates the configured decision rule: true means the head of
// the EDF-List's top workflow executes next.
func (a *ASETSStar) runEDFFirst(now float64, e, h *entity, headE, headH *txn.Transaction) bool {
	switch a.cfg.rule {
	case RuleSymmetric:
		// Section III-B prose, weight-scaled for the general case: compare
		// the negative impact each side inflicts on the other's
		// representative.
		niE := (headE.Remaining - h.rep.Slack(now)) * h.rep.Weight
		niH := (headH.Remaining - e.rep.Slack(now)) * e.rep.Weight
		return niE <= niH
	case RuleFig7:
		// Fig. 7, lines 15-17: running E delays H's representative by the
		// full head length; running H delays E's representative only by
		// what E's slack cannot absorb.
		niE := headE.Remaining * h.rep.Weight
		niH := (headH.Remaining - e.rep.Slack(now)) * e.rep.Weight
		return niE < niH
	default:
		panic(fmt.Sprintf("core: unknown decision rule %d", a.cfg.rule))
	}
}

// activate implements the balance-aware T_old selection (Section III-D):
// when the activation period elapses, the ready transaction with the highest
// weight-to-deadline ratio runs regardless of the ASETS* order.
func (a *ASETSStar) activate(now float64) *txn.Transaction {
	switch a.cfg.activation {
	case ActivationNone:
		return nil
	case ActivationTime:
		if now < a.nextActivation {
			return nil
		}
		for a.nextActivation <= now {
			a.nextActivation += 1 / a.cfg.rate
		}
	case ActivationCount:
		period := int(1/a.cfg.rate + 0.5)
		if period < 1 {
			period = 1
		}
		if a.schedPoints%period != 0 {
			return nil
		}
	default:
		panic(fmt.Sprintf("core: unknown activation mode %d", a.cfg.activation))
	}
	return a.oldest()
}

// oldest returns T_old: the ready transaction maximizing w_i/d_i, with ties
// broken by lower ID for determinism. Returns nil when nothing is ready.
func (a *ASETSStar) oldest() *txn.Transaction {
	if it := a.old.Peek(); it != nil {
		return it.Value
	}
	return nil
}

// olderThan orders the T_old candidates: highest weight-to-deadline ratio
// first, then lower ID.
func olderThan(x, y *txn.Transaction) bool {
	rx, ry := x.Weight/x.Deadline, y.Weight/y.Deadline
	//lint:ignore floatcmp comparator tie-break: exact equality only decides which key breaks the tie, the order stays total
	if rx != ry {
		return rx > ry
	}
	return x.ID < y.ID
}

// unmarkOld removes t from the T_old candidates, if it is one.
func (a *ASETSStar) unmarkOld(t *txn.Transaction) {
	if a.old != nil && a.oldItem[t.ID].InHeap() {
		a.old.Remove(&a.oldItem[t.ID])
	}
}

// QueueLengths reports the current sizes of the EDF and HDF lists, exposed
// for tests and instrumentation.
func (a *ASETSStar) QueueLengths() (edf, hdf int) {
	return a.edf.Len(), a.hdf.Len()
}
