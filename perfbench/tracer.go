package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/txn"
)

// layer names one timed boundary of the traced run.
type layer int

const (
	lSim layer = iota
	lExecutor
	lCluster
	lRunner
	lWorkload
	lCore
	lContention
	lRing
	lSpan
	lClock
	lAdmit
	lPolicy
	lFactory
	lGen
	nLayers
)

var layerNames = [nLayers]string{
	"sim", "executor", "cluster", "runner", "workload", "core", "contention",
	"obs.ring", "obs.span", "executor.clock", "admit", "cluster.policy",
	"cluster.factory", "runner.gen",
}

// op names the call made at a layer boundary.
type op int

const (
	opRun op = iota
	opInit
	opArrival
	opNext
	opPreempt
	opCompletion
	opEmit
	opBatch
	opNow
	opSleep
	opAdmit
	opComplete
	opDegraded
	opPick
	opBuild
	nOps
)

var opNames = [nOps]string{
	"run", "init", "arrival", "next", "preempt", "completion", "emit",
	"emit_batch", "now", "sleep", "admit", "complete", "degraded", "pick", "build",
}

// stat aggregates the spans of one (layer, op) pair.
type stat struct {
	count int64
	total int64 // ns
	self  int64 // ns, total minus the time covered by child spans
}

func (s *stat) add(o stat) {
	s.count += o.count
	s.total += o.total
	s.self += o.self
}

// spanRec is one retained span, written out when the benchmark ends.
type spanRec struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Txn    int    `json:"txn"` // -1 when the call carries no transaction
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
}

type frame struct {
	l     layer
	o     op
	start int64
	child int64
	rec   int
	nexts int // policy Next calls made inside this span
}

// tracer keeps per-layer spans in memory: every span is folded into its
// (layer, op) aggregate, and the first keep spans are retained verbatim.
// A tracer belongs to one goroutine; parallel jobs each get their own and
// merge afterwards.
type tracer struct {
	epoch time.Time
	stack []frame
	agg   [nLayers][nOps]stat
	spans []spanRec
	keep  int

	// Counts made at the boundaries.
	events, alerts int64 // events delivered to the ring, alert transitions among them
	probes         int64 // policy Next calls inside a Deferring Next past its head
	handBacks      int64 // policy OnPreempt calls a Deferring Next makes to return skipped candidates
	setupNs        int64 // engine entry to its first scheduler Init, summed over runs
	initSeen       bool
	rebuilds       int64
	rebuildNs      int64
	busyNs         int64 // runner: job busy time (generation start to check end)
}

func newTracer(keep int) *tracer {
	return &tracer{epoch: time.Now(), keep: keep, stack: make([]frame, 0, 16)}
}

// The tracer's methods are no-ops on a nil tracer, so untraced runs share
// the traced code path.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span at layer l; id is the transaction the call carries,
// or -1.
func (t *tracer) begin(l layer, o op, id int) {
	if t == nil {
		return
	}
	if l == lCore && len(t.stack) > 0 {
		if top := &t.stack[len(t.stack)-1]; top.l == lContention && top.o == opNext {
			switch o {
			case opNext:
				if top.nexts++; top.nexts > 1 {
					t.probes++
				}
			case opPreempt:
				t.handBacks++
			}
		}
	}
	f := frame{l: l, o: o, rec: -1, start: t.now()}
	if len(t.spans) < t.keep {
		parent := -1
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].rec
		}
		f.rec = len(t.spans)
		t.spans = append(t.spans, spanRec{Layer: layerNames[l], Op: opNames[o], Txn: id, Start: f.start, Parent: parent})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := t.now() - f.start
	s := &t.agg[f.l][f.o]
	s.count++
	s.total += d
	s.self += d - f.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	if f.rec >= 0 {
		t.spans[f.rec].Dur = d
	}
	return d
}

// setTxn stamps the transaction on the span just opened, for calls whose
// transaction is known only on return (Next).
func (t *tracer) setTxn(id int) {
	if f := t.stack[len(t.stack)-1]; f.rec >= 0 {
		t.spans[f.rec].Txn = id
	}
}

// engine opens the span of one engine run.
func (t *tracer) engine(l layer) {
	if t == nil {
		return
	}
	t.initSeen = false
	t.begin(l, opRun, -1)
}

// markInit records the engine's set-up time at its first scheduler Init.
func (t *tracer) markInit() {
	if t.initSeen {
		return
	}
	t.initSeen = true
	for _, f := range t.stack {
		if f.l <= lRunner && f.o == opRun {
			t.setupNs += t.now() - f.start
			return
		}
	}
}

// merge folds o into t.
func (t *tracer) merge(o *tracer) {
	for l := range t.agg {
		for p := range t.agg[l] {
			t.agg[l][p].add(o.agg[l][p])
		}
	}
	t.events += o.events
	t.alerts += o.alerts
	t.probes += o.probes
	t.handBacks += o.handBacks
	t.setupNs += o.setupNs
	t.rebuilds += o.rebuilds
	t.rebuildNs += o.rebuildNs
	t.busyNs += o.busyNs
	if room := t.keep - len(t.spans); room > 0 {
		if room > len(o.spans) {
			room = len(o.spans)
		}
		base := len(t.spans)
		for _, s := range o.spans[:room] {
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.spans = append(t.spans, s)
		}
	}
}

// layer sums every op of l.
func (t *tracer) layer(l layer) stat {
	var s stat
	for _, o := range t.agg[l] {
		s.add(o)
	}
	return s
}

// writeSpans writes the retained spans and the aggregates as JSON lines.
func (t *tracer) writeSpans(path string, stamp map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	// A failed write sticks in w and surfaces at Flush.
	_ = enc.Encode(map[string]any{"machine": stamp})
	for l := range t.agg {
		for o, s := range t.agg[l] {
			if s.count > 0 {
				_ = enc.Encode(map[string]any{"layer": layerNames[l], "op": opNames[o], "count": s.count, "total_ns": s.total, "self_ns": s.self})
			}
		}
	}
	for _, s := range t.spans {
		_ = enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// tracedSched times every call into a scheduling policy. It forwards the
// optional interfaces the engines and wrappers type-assert on
// (sched.SinkSetter, Unwrap), so wrapping never changes behaviour.
type tracedSched struct {
	inner   sched.Scheduler
	tr      *tracer
	l       layer
	rebuild bool // built by a crash recovery: its Init is rebuild cost
}

func traceSched(s sched.Scheduler, tr *tracer, l layer) sched.Scheduler {
	if tr == nil {
		return s
	}
	return &tracedSched{inner: s, tr: tr, l: l}
}

func (s *tracedSched) Name() string            { return s.inner.Name() }
func (s *tracedSched) Unwrap() sched.Scheduler { return s.inner }

// SetSink reaches the policy only when it implements sched.SinkSetter, as
// the engines' own type assertion would without the wrapper.
func (s *tracedSched) SetSink(sink obs.Sink) {
	if ss, ok := s.inner.(sched.SinkSetter); ok {
		ss.SetSink(sink)
	}
}

func (s *tracedSched) Init(set *txn.Set) {
	s.tr.markInit()
	s.tr.begin(s.l, opInit, -1)
	s.inner.Init(set)
	if d := s.tr.end(); s.rebuild {
		s.tr.rebuildNs += d
	}
}

func (s *tracedSched) OnArrival(now float64, t *txn.Transaction) {
	s.tr.begin(s.l, opArrival, int(t.ID))
	s.inner.OnArrival(now, t)
	s.tr.end()
}

func (s *tracedSched) Next(now float64) *txn.Transaction {
	s.tr.begin(s.l, opNext, -1)
	t := s.inner.Next(now)
	if t != nil {
		s.tr.setTxn(int(t.ID))
	}
	s.tr.end()
	return t
}

func (s *tracedSched) OnPreempt(now float64, t *txn.Transaction) {
	s.tr.begin(s.l, opPreempt, int(t.ID))
	s.inner.OnPreempt(now, t)
	s.tr.end()
}

func (s *tracedSched) OnCompletion(now float64, t *txn.Transaction) {
	s.tr.begin(s.l, opCompletion, int(t.ID))
	s.inner.OnCompletion(now, t)
	s.tr.end()
}

// Sink wrappers come in three shapes, one per optional interface set, so
// obs.Emitter binds exactly the methods it would bind on the wrapped sink
// (EmitShared for a SharedSink, EmitSharedBatch for a BatchSink).
type tracedSink struct {
	inner obs.Sink
	tr    *tracer
	l     layer
	count bool // count the events delivered (set on exactly one endpoint)
}

func (s *tracedSink) note(k obs.Kind) {
	if !s.count {
		return
	}
	s.tr.events++
	if k == obs.KindAlertFire || k == obs.KindAlertResolve {
		s.tr.alerts++
	}
}

func (s *tracedSink) Emit(ev obs.Event) {
	s.note(ev.Kind)
	s.tr.begin(s.l, opEmit, int(ev.Txn))
	s.inner.Emit(ev)
	s.tr.end()
}

type tracedSharedSink struct{ tracedSink }

func (s *tracedSharedSink) EmitShared(ev *obs.Event) {
	s.note(ev.Kind)
	s.tr.begin(s.l, opEmit, int(ev.Txn))
	s.inner.(obs.SharedSink).EmitShared(ev)
	s.tr.end()
}

type tracedBatchSink struct{ tracedSharedSink }

func (s *tracedBatchSink) EmitSharedBatch(evs []obs.Event) {
	for i := range evs {
		s.note(evs[i].Kind)
	}
	s.tr.begin(s.l, opBatch, -1)
	s.inner.(obs.BatchSink).EmitSharedBatch(evs)
	s.tr.end()
}

func traceSink(sink obs.Sink, tr *tracer, l layer, count bool) obs.Sink {
	if tr == nil {
		return sink
	}
	base := tracedSink{inner: sink, tr: tr, l: l, count: count}
	if _, ok := sink.(obs.SharedSink); !ok {
		return &base
	}
	if _, ok := sink.(obs.BatchSink); !ok {
		return &tracedSharedSink{base}
	}
	return &tracedBatchSink{tracedSharedSink{base}}
}

// clock is the executor's Clock interface.
type clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

type tracedClock struct {
	inner clock
	tr    *tracer
}

func (c *tracedClock) Now() time.Time {
	c.tr.begin(lClock, opNow, -1)
	t := c.inner.Now()
	c.tr.end()
	return t
}

func (c *tracedClock) Sleep(ctx context.Context, d time.Duration) error {
	c.tr.begin(lClock, opSleep, -1)
	err := c.inner.Sleep(ctx, d)
	c.tr.end()
	return err
}

type tracedAdmit struct {
	inner admit.Controller
	tr    *tracer
}

func (a *tracedAdmit) Name() string { return a.inner.Name() }

func (a *tracedAdmit) Admit(t *txn.Transaction, st admit.State) bool {
	a.tr.begin(lAdmit, opAdmit, int(t.ID))
	ok := a.inner.Admit(t, st)
	a.tr.end()
	return ok
}

func (a *tracedAdmit) Complete(t *txn.Transaction, tardy bool) {
	a.tr.begin(lAdmit, opComplete, int(t.ID))
	a.inner.Complete(t, tardy)
	a.tr.end()
}

func (a *tracedAdmit) Degraded() bool {
	a.tr.begin(lAdmit, opDegraded, -1)
	d := a.inner.Degraded()
	a.tr.end()
	return d
}

type tracedPolicy struct {
	inner cluster.Policy
	tr    *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Pick(views []cluster.InstanceView) int {
	p.tr.begin(lPolicy, opPick, -1)
	j := p.inner.Pick(views)
	p.tr.end()
	return j
}

// traceFactory wraps a cluster.Config.NewScheduler factory for one run:
// calls past the initial fleet are crash-recovery rebuilds, whose factory
// and Init time is summed as rebuild cost.
func traceFactory(f func() sched.Scheduler, tr *tracer, instances int) func() sched.Scheduler {
	if tr == nil {
		return f
	}
	calls := 0
	return func() sched.Scheduler {
		rebuild := calls >= instances
		calls++
		tr.begin(lFactory, opBuild, -1)
		s := &tracedSched{inner: f(), tr: tr, l: lCore, rebuild: rebuild}
		if d := tr.end(); rebuild {
			tr.rebuilds++
			tr.rebuildNs += d
		}
		return s
	}
}
