package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/txn"
)

// This file builds per-transaction causal spans out of the flat decision
// event stream: a SpanBuilder is a Sink that folds
// arrival/dispatch/preempt/completion/abort/restart/stall/shed events into
// one Span per transaction, with typed segments tiling the transaction's
// lifetime, parent/child links from the workflow DAG, and a tardiness
// attribution that sums bit-exactly to the span's response time (see the
// Attribution invariant below and docs/OBSERVABILITY.md).
//
// The builder is engineered for the zero-allocation fast path: open-span
// state lives in a dense array indexed by transaction ID (no map, no per-txn
// tracking allocation), span and starter-segment storage bump-allocates from
// arenas preallocated at construction, and closed spans recycle through a
// free list once the Keep bound compacts them. A completion's sketch
// observations take the registry's span-family lock once: the three
// run-total sketches and the (window, class, mode) cell, a pointer-free slab
// slot reached through a dense (window, label) index, with no formatted
// name, no per-cell registration and no map operation.
// docs/OBSERVABILITY.md ("Overhead budgets") carries the enforced numbers.

// SegmentKind classifies one stretch of a transaction's lifetime.
type SegmentKind int

const (
	// SegQueued — waiting in the ready queue for its first (or a
	// post-restart) dispatch.
	SegQueued SegmentKind = iota
	// SegRunning — checked out to a server, receiving service.
	SegRunning
	// SegPreempted — set aside unfinished by a scheduling decision, waiting
	// to be re-dispatched.
	SegPreempted
	// SegStalled — waiting out a backend stall/crash outage window.
	SegStalled
	// SegBackoff — aborted, waiting for its retry instant.
	SegBackoff
)

// String returns the stable wire name of the segment kind.
func (k SegmentKind) String() string {
	switch k {
	case SegQueued:
		return "queued"
	case SegRunning:
		return "running"
	case SegPreempted:
		return "preempted"
	case SegStalled:
		return "stalled"
	case SegBackoff:
		return "backoff"
	default:
		panic(fmt.Sprintf("obs: unknown segment kind %d", int(k)))
	}
}

// Segment is one typed stretch of a span. Segments tile [Arrival, Finish]:
// each segment's End is the exact float the next segment's Start holds.
type Segment struct {
	Kind  SegmentKind
	Start float64
	End   float64
}

// Attribution breaks a completed span's response time down by cause: time
// spent waiting for first service (Queued), receiving service (Service),
// waiting after a preemption (Preempted), waiting out outage windows
// (Stalled) and waiting out abort backoffs (Backoff). Each category is the
// time-order fold of its segments' durations, so the breakdown is a pure
// function of the segment list.
type Attribution struct {
	Queued    float64
	Service   float64
	Preempted float64
	Stalled   float64
	Backoff   float64
}

// Sum adds the categories in their fixed declaration order. Span.Response is
// defined as exactly this fold, which is what makes the "attribution sums to
// response time" invariant bit-exact rather than merely approximate: float
// addition is not associative, so the definition pins one association.
func (a Attribution) Sum() float64 {
	return a.Queued + a.Service + a.Preempted + a.Stalled + a.Backoff
}

// Span is the lifecycle record of one transaction, folded from the decision
// event stream.
type Span struct {
	// Txn identifies the transaction; Workflow is its primary scheduling
	// entity (the lowest-ID workflow containing it), -1 when unknown.
	Txn      txn.ID
	Workflow int
	// Parents are the transaction's direct dependencies; Children the
	// transactions that directly depend on it (the causal DAG edges). Both
	// alias the immutable workload set's slices and must be treated as
	// read-only.
	Parents  []txn.ID
	Children []txn.ID
	// Weight is w_i; Class its weight class (light/medium/heavy); Mode the
	// scheduler mode ("edf" or "hdf") of the primary workflow at completion.
	Weight float64
	Class  string
	Mode   string
	// Arrival, Finish and Deadline are simulated-time instants; Finish is
	// the shed instant for shed spans.
	Arrival  float64
	Finish   float64
	Deadline float64
	// Response is the attribution fold (see Attribution.Sum); Tardiness the
	// completion event's tardiness; Slowdown Response over service length.
	Response  float64
	Tardiness float64
	Slowdown  float64
	// Restarts counts post-abort re-queues, Preempts scheduling
	// preemptions (crash losses count as restarts, not preemptions).
	Restarts int
	Preempts int
	// Shed marks an admission rejection; Completed a finished transaction.
	Shed      bool
	Completed bool
	Segments  []Segment
	Attr      Attribution
}

// MarshalJSON renders the span as one flat JSON object with a fixed field
// order and shortest round-trip floats, so serialized span streams are
// byte-stable across runs (the same contract as Event.MarshalJSON).
func (s Span) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 512)
	b = append(b, `{"txn":`...)
	b = strconv.AppendInt(b, int64(s.Txn), 10)
	b = append(b, `,"wf":`...)
	b = strconv.AppendInt(b, int64(s.Workflow), 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendQuote(b, s.Class)
	b = append(b, `,"mode":`...)
	b = strconv.AppendQuote(b, s.Mode)
	b = append(b, `,"weight":`...)
	b = strconv.AppendFloat(b, s.Weight, 'g', -1, 64)
	b = append(b, `,"arrival":`...)
	b = strconv.AppendFloat(b, s.Arrival, 'g', -1, 64)
	b = append(b, `,"finish":`...)
	b = strconv.AppendFloat(b, s.Finish, 'g', -1, 64)
	b = append(b, `,"deadline":`...)
	b = strconv.AppendFloat(b, s.Deadline, 'g', -1, 64)
	b = append(b, `,"response":`...)
	b = strconv.AppendFloat(b, s.Response, 'g', -1, 64)
	b = append(b, `,"tardiness":`...)
	b = strconv.AppendFloat(b, s.Tardiness, 'g', -1, 64)
	b = append(b, `,"slowdown":`...)
	b = strconv.AppendFloat(b, s.Slowdown, 'g', -1, 64)
	b = append(b, `,"restarts":`...)
	b = strconv.AppendInt(b, int64(s.Restarts), 10)
	b = append(b, `,"preempts":`...)
	b = strconv.AppendInt(b, int64(s.Preempts), 10)
	b = append(b, `,"shed":`...)
	b = strconv.AppendBool(b, s.Shed)
	b = append(b, `,"completed":`...)
	b = strconv.AppendBool(b, s.Completed)
	b = append(b, `,"parents":`...)
	b = appendIDs(b, s.Parents)
	b = append(b, `,"children":`...)
	b = appendIDs(b, s.Children)
	b = append(b, `,"segments":[`...)
	for i, seg := range s.Segments {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"kind":"`...)
		b = append(b, seg.Kind.String()...)
		b = append(b, `","start":`...)
		b = strconv.AppendFloat(b, seg.Start, 'g', -1, 64)
		b = append(b, `,"end":`...)
		b = strconv.AppendFloat(b, seg.End, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"attr":{"queued":`...)
	b = strconv.AppendFloat(b, s.Attr.Queued, 'g', -1, 64)
	b = append(b, `,"service":`...)
	b = strconv.AppendFloat(b, s.Attr.Service, 'g', -1, 64)
	b = append(b, `,"preempted":`...)
	b = strconv.AppendFloat(b, s.Attr.Preempted, 'g', -1, 64)
	b = append(b, `,"stalled":`...)
	b = strconv.AppendFloat(b, s.Attr.Stalled, 'g', -1, 64)
	b = append(b, `,"backoff":`...)
	b = strconv.AppendFloat(b, s.Attr.Backoff, 'g', -1, 64)
	b = append(b, `}}`...)
	return b, nil
}

func appendIDs(b []byte, ids []txn.ID) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// WriteSpans serializes spans as JSON Lines in the given order.
func WriteSpans(w io.Writer, spans []*Span) error {
	for _, s := range spans {
		b, err := s.MarshalJSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Metric names of the span layer. The windowed series carry a Prometheus
// label set inside the registered name — see WindowMetric.
const (
	MetricSpanTardiness = "asets_span_tardiness"
	MetricSpanResponse  = "asets_span_response"
	MetricSpanSlowdown  = "asets_span_slowdown"
)

// WindowMetric returns the exported name of a windowed sketch cell, e.g.
// `asets_window_tardiness{window="0003",class="heavy",mode="edf"}`. The
// window index is zero-padded so registry name sorting orders cells by time.
// It is the one renderer of cell names, and runs only on the cold paths that
// need them (registry snapshots, /metrics rendering and name-conflict
// checks); completions reach their cell through the registry's spanSketches
// families instead.
//
// Class and mode values are escaped for the Prometheus exposition format
// (EscapeLabel): the mode name is interned from event Detail strings, which
// a replayed JSONL stream controls, so a crafted `"` or newline must not be
// able to splice extra labels or samples into /metrics output.
func WindowMetric(kind string, window int, class, mode string) string {
	return MetricName(fmt.Sprintf("asets_window_%s", kind),
		"window", fmt.Sprintf("%04d", window), "class", class, "mode", mode)
}

// classNames are the SLA weight classes of the windowed exports, indexed by
// weightClassIdx.
var classNames = [NumWeightClasses]string{"light", "medium", "heavy"}

// NumWeightClasses is the number of SLA weight classes the windowed exports
// (and the SLO engine built on them) are keyed by.
const NumWeightClasses = 3

// WeightClassIndex buckets a transaction weight into the three SLA classes
// the windowed exports are keyed by (paper weights are integers in
// [1, 10]), as a dense index in [0, NumWeightClasses).
func WeightClassIndex(w float64) int { return int(weightClassIdx(w)) }

// ClassName returns the name of a dense weight-class index.
func ClassName(i int) string { return classNames[i] }

// weightClassIdx is WeightClassIndex as a dense cell index.
func weightClassIdx(w float64) int8 {
	switch {
	case w < 4:
		return 0
	case w < 8:
		return 1
	default:
		return 2
	}
}

// SpanOptions configures a SpanBuilder.
type SpanOptions struct {
	// Metrics, when non-nil, receives span observations: total sketches
	// (MetricSpan*) plus, when Window > 0, tumbling-window sketches per
	// weight class and scheduler mode (WindowMetric names).
	Metrics *Registry
	// Window is the tumbling-window width in simulated time; 0 disables
	// the windowed series.
	Window float64
	// Keep bounds the number of retained closed spans (0 = unlimited); the
	// server sets it so long replays don't grow without bound. With a Keep
	// bound, compacted-away spans recycle through a free list, so steady
	// state allocates no new Span or Segment storage.
	Keep int
	// Overhead, when non-nil, receives span-pool hit/miss self-telemetry.
	Overhead *Overhead
}

// spanState is the in-flight state machine of one open span. States live in
// a dense array indexed by transaction ID (txn.Set guarantees dense IDs), so
// tracking an open span needs no map operation and no allocation.
type spanState struct {
	span     *Span
	curStart float64
	cur      SegmentKind
	classIdx int8
	active   bool
}

// spanArenaSpans caps the preallocated span arena. Small runs get full
// coverage (every span arena-served); large runs warm the free list within
// the first spanArenaSpans opens and recycle from there, so the arena stays
// bounded no matter how far the harness scale grows.
const spanArenaSpans = 4096

// segRegionLen is the starter segment capacity carved out of the segment
// arena per arena-served span — enough for the common queued/running/
// preempted/queued shapes; busier spans spill to a heap-grown list.
const segRegionLen = 4

// SpanBuilder folds the decision event stream into spans. It is a Sink (and
// a SharedSink and BatchSink); like Ring it locks internally, so the single
// emitting goroutine can run while HTTP handlers snapshot. Its own lock
// guards the spans and is taken once per event batch; the sketches live in
// the registry's span family, whose one lock a completion takes once for
// the run totals and its window cell, and which scrapes and RetainedBytes
// take to read them. Events must arrive in stream order (the
// order every in-repo emitter produces).
//
// Determinism: spans are a pure fold of the event stream plus the immutable
// workload set, so a fixed-seed run yields a byte-identical span stream;
// run-total and windowed sketches are observed directly, in stream order, so
// registry sums stay bit-identical as well.
type SpanBuilder struct {
	mu        sync.Mutex
	set       *txn.Set
	opts      SpanOptions
	wfOf      []int32     // txn ID -> primary workflow (-1 none); immutable after construction
	modeOf    []int8      // workflow ID -> modeNames index of its current scheduler mode
	modeNames []string    // interned mode names; [0] is the "edf" default
	states    []spanState // txn ID -> open-span state machine
	openCount int
	// spanArena/segArena are preallocated backing stores sized at
	// construction: pool misses bump-allocate a Span (and a fixed starter
	// segment region) from them before falling back to the heap, so a run's
	// spans cost two arena allocations instead of one per span plus one per
	// segment-list growth.
	spanArena []Span
	arenaN    int
	segArena  []Segment
	segN      int
	fam       *spanSketches // the registry's span sketches; nil until the first completed span
	// labels maps mode*NumWeightClasses + class to 1 + the family's label id
	// of that (class, mode) pair, 0 until the pair first completes.
	labels   []int32
	done     []*Span
	free     []*Span // spans recycled by Keep-compaction, ready for reuse
	total    uint64
	stallAt  float64 // time of the most recent stall window entry
	hasStall bool
}

// NewSpanBuilder returns a builder for transactions of set. The set provides
// the causal DAG (Deps/Dependents), weights and service lengths; it must be
// the same set the run executes (the runner's per-job clone is fine — spans
// only read immutable workload fields).
func NewSpanBuilder(set *txn.Set, opts SpanOptions) *SpanBuilder {
	b := &SpanBuilder{
		set:       set,
		opts:      opts,
		wfOf:      make([]int32, set.Len()),
		states:    make([]spanState, set.Len()),
		modeNames: []string{"edf", "hdf"},
	}
	for i := range b.wfOf {
		b.wfOf[i] = -1
	}
	arena := set.Len()
	if arena > spanArenaSpans {
		arena = spanArenaSpans
	}
	b.spanArena = make([]Span, arena)
	b.segArena = make([]Segment, segRegionLen*arena)
	// Every transaction closes its span at most once (completion or shed), so
	// the done list never outgrows this capacity: n without a Keep bound, and
	// the 2×Keep+1 compaction high-water mark with one.
	capDone := set.Len()
	if opts.Keep > 0 && 2*opts.Keep+1 < capDone {
		capDone = 2*opts.Keep + 1
	}
	b.done = make([]*Span, 0, capDone)
	// Workflow membership, computed as txn.BuildWorkflows assigns it —
	// workflow i is the dependency closure of Roots()[i], and a transaction's
	// primary workflow is the lowest-ID one containing it — but as a pruned
	// DFS straight into the dense wfOf table. BuildWorkflows materializes
	// per-workflow member slices and pending maps (O(n) allocations the
	// scheduler needs and the span layer does not); the pruning is sound
	// because dependency closures are ancestor-closed: once a node is
	// claimed, every ancestor of it is already claimed too.
	roots := set.Roots()
	b.modeOf = make([]int8, len(roots))
	stack := make([]txn.ID, 0, 64)
	for i, root := range roots {
		if b.wfOf[root] >= 0 {
			continue
		}
		wf := int32(i)
		b.wfOf[root] = wf
		stack = append(stack, root)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range set.Txns[cur].Deps {
				if b.wfOf[d] < 0 {
					b.wfOf[d] = wf
					stack = append(stack, d)
				}
			}
		}
	}
	return b
}

// Emit implements Sink, for callers that hold the builder behind the plain
// interface (tests, unbatched wiring). The observer's staged batches reach
// EmitSharedBatch instead.
func (b *SpanBuilder) Emit(ev Event) { b.EmitShared(&ev) }

// EmitShared implements SharedSink: the event is borrowed for the duration
// of the call and everything retained is captured by copy. It folds one
// event exactly as EmitSharedBatch folds each of a batch, so it is a
// hot-path root in its own right.
//
//lint:hotpath
func (b *SpanBuilder) EmitShared(ev *Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.emitLocked(ev)
}

// EmitSharedBatch implements BatchSink: the whole batch is folded under one
// lock acquisition, in slice order — the same fold as event-at-a-time
// emission, so batched delivery cannot change any span.
//
//lint:hotpath
func (b *SpanBuilder) EmitSharedBatch(evs []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range evs {
		b.emitLocked(&evs[i])
	}
}

// emitLocked folds one event into the span state machines. Callers hold b.mu.
func (b *SpanBuilder) emitLocked(ev *Event) {
	switch ev.Kind {
	case KindArrival:
		b.openSpan(ev)
	case KindDispatch:
		if st := b.stateOf(ev.Txn); st != nil && st.cur != SegRunning {
			b.closeSeg(st, ev.Time)
			st.cur = SegRunning
		}
	case KindPreempt:
		// Only a running transaction can be preempted; a preempt for a
		// queued one is the scheduler re-learning about a restarted or
		// crash-lost transaction, which changes no segment.
		if st := b.stateOf(ev.Txn); st != nil && st.cur == SegRunning {
			b.closeSeg(st, ev.Time)
			if b.hasStall && b.stallAt == ev.Time {
				// The outage window opening at this exact instant is what
				// evicted the transaction.
				st.cur = SegStalled
			} else {
				st.cur = SegPreempted
				st.span.Preempts++
			}
		}
	case KindCompletion:
		if st := b.stateOf(ev.Txn); st != nil {
			b.closeSeg(st, ev.Time)
			b.finalize(st, ev)
		}
	case KindAbort:
		if st := b.stateOf(ev.Txn); st != nil && st.cur == SegRunning {
			b.closeSeg(st, ev.Time)
			if ev.Detail == "crash" {
				// In-flight work destroyed by a crash window: the wait is
				// the outage's fault, and the re-queue happens via the
				// no-op preempt that follows.
				st.cur = SegStalled
			} else {
				st.cur = SegBackoff
			}
		}
	case KindRestart:
		if st := b.stateOf(ev.Txn); st != nil && st.cur == SegBackoff {
			b.closeSeg(st, ev.Time)
			st.cur = SegQueued
			st.span.Restarts++
		}
	case KindStall:
		b.stallAt, b.hasStall = ev.Time, true
	case KindShed:
		st := b.stateOf(ev.Txn)
		if st == nil {
			b.openSpan(ev)
			if st = b.stateOf(ev.Txn); st == nil {
				break
			}
		}
		b.closeSeg(st, ev.Time)
		st.span.Shed = true
		b.finalize(st, ev)
	case KindModeSwitch:
		if i := strings.Index(ev.Detail, "->"); i >= 0 && ev.Workflow >= 0 && ev.Workflow < len(b.modeOf) {
			b.modeOf[ev.Workflow] = b.internMode(ev.Detail[i+2:])
		}
	case KindFailover:
		// The transaction lost its place on a crashed instance and is being
		// re-enqueued elsewhere (or dropped): whatever segment it was in ends
		// and it waits in the new instance's queue. It cannot be running —
		// the crash's abort event already evicted it.
		if st := b.stateOf(ev.Txn); st != nil && st.cur != SegRunning {
			b.closeSeg(st, ev.Time)
			st.cur = SegQueued
		}
	case KindValidateFail:
		// Commit-time validation failed: the run segment ends and the
		// rewound transaction waits for a fresh incarnation. Counted as a
		// restart — like an abort/restart pair, the transaction starts
		// over — but with no backoff segment (re-queue is immediate).
		if st := b.stateOf(ev.Txn); st != nil && st.cur == SegRunning {
			b.closeSeg(st, ev.Time)
			st.cur = SegQueued
			st.span.Restarts++
		}
	case KindDeadlineMiss, KindAging, KindDegradeEnter, KindDegradeExit,
		KindRoute, KindEject, KindRecover, KindConflictDefer,
		KindAlertFire, KindAlertResolve:
		// No segment transitions: misses ride the completion event's
		// tardiness, aging precedes an ordinary dispatch, degradation is a
		// controller-level state, route precedes the arrival that opens the
		// span, eject/recover are instance-level breaker transitions, a
		// conflict-deferred transaction simply stays queued, and SLO alerts
		// are window-boundary rule transitions with no transaction subject.
	default:
		panic(fmt.Sprintf("obs: span builder: unknown event kind %d", int(ev.Kind)))
	}
}

// stateOf returns the open-span state of id, nil when id is out of range or
// has no open span.
func (b *SpanBuilder) stateOf(id txn.ID) *spanState {
	if id < 0 || int(id) >= len(b.states) {
		return nil
	}
	if st := &b.states[id]; st.active {
		return st
	}
	return nil
}

// internMode maps a scheduler mode name to its dense index, growing the
// interning table on first sight of a new name. The scan is over the tiny
// interned set ("edf", "hdf" in every in-repo policy).
//
//lint:coldpath mode names are interned once per distinct name, not per event
func (b *SpanBuilder) internMode(m string) int8 {
	for i, s := range b.modeNames {
		if s == m {
			return int8(i)
		}
	}
	b.modeNames = append(b.modeNames, strings.Clone(m))
	return int8(len(b.modeNames) - 1)
}

// openSpan starts a span at ev (an arrival, or a shed of a transaction that
// never reached the scheduler), reusing a free-listed span when one is
// available. Events for IDs outside the workload set are ignored.
func (b *SpanBuilder) openSpan(ev *Event) {
	if ev.Txn < 0 || int(ev.Txn) >= len(b.states) {
		return
	}
	st := &b.states[ev.Txn]
	if st.active {
		return
	}
	var sp *Span
	if n := len(b.free); n > 0 {
		sp = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		segs := sp.Segments[:0] // keep the warmed backing array
		*sp = Span{Segments: segs}
		if ov := b.opts.Overhead; ov != nil {
			ov.CountPoolHit()
		}
	} else if b.arenaN < len(b.spanArena) {
		// Arena-served: no heap allocation, so this counts as a pool hit in
		// the self-telemetry. The three-index slice caps the starter region,
		// so growth past it reallocates instead of clobbering the neighbor.
		sp = &b.spanArena[b.arenaN]
		b.arenaN++
		sp.Segments = b.segArena[b.segN : b.segN : b.segN+segRegionLen]
		b.segN += segRegionLen
		if ov := b.opts.Overhead; ov != nil {
			ov.CountPoolHit()
		}
	} else {
		//lint:ignore hotpath-alloc pool miss: one Span beyond the free list's and arena's reach; sim's TestObsOverheadAllocs budgets the steady-state rate
		sp = &Span{}
		if ov := b.opts.Overhead; ov != nil {
			ov.CountPoolMiss()
		}
	}
	sp.Txn = ev.Txn
	sp.Workflow = -1
	sp.Arrival = ev.Time
	sp.Deadline = ev.Deadline
	st.classIdx = 0
	if wf := b.wfOf[ev.Txn]; wf >= 0 {
		sp.Workflow = int(wf)
	}
	if t := b.set.ByID(ev.Txn); t != nil {
		sp.Weight = t.Weight
		st.classIdx = weightClassIdx(t.Weight)
		// Parents/Children alias the immutable workload DAG slices; the set
		// is read-only for the duration of a run and spans treat the links
		// as read-only too, so no defensive clone is needed.
		sp.Parents = t.Deps
		sp.Children = b.set.DependentsOf(ev.Txn)
	}
	sp.Class = classNames[st.classIdx]
	sp.Mode = b.modeNames[0]
	st.span = sp
	st.cur = SegQueued
	st.curStart = ev.Time
	st.active = true
	b.openCount++
}

// closeSeg ends the current segment at t, dropping zero-length segments
// (same-instant transitions like an arrival dispatched immediately).
func (b *SpanBuilder) closeSeg(st *spanState, t float64) {
	if t > st.curStart {
		//lint:ignore hotpath-alloc segments append into the span's recycled backing array; growth past warmed capacity is the span's payload
		st.span.Segments = append(st.span.Segments, Segment{Kind: st.cur, Start: st.curStart, End: t})
	}
	st.curStart = t
}

// finalize closes the span at a completion or shed event: computes the
// attribution fold, derived fields and sketch observations, and moves the
// span to the done list.
func (b *SpanBuilder) finalize(st *spanState, ev *Event) {
	sp := st.span
	sp.Finish = ev.Time
	modeIdx := int8(0)
	if wf := sp.Workflow; wf >= 0 && wf < len(b.modeOf) {
		modeIdx = b.modeOf[wf]
	}
	sp.Mode = b.modeNames[modeIdx]
	// The attribution is the time-order per-category fold of segment
	// durations, and Response is the category-order sum of the attribution.
	// Both are pure functions of the segment list, so re-deriving either
	// from the serialized segments reproduces them bit for bit.
	for _, seg := range sp.Segments {
		d := seg.End - seg.Start
		switch seg.Kind {
		case SegQueued:
			sp.Attr.Queued += d
		case SegRunning:
			sp.Attr.Service += d
		case SegPreempted:
			sp.Attr.Preempted += d
		case SegStalled:
			sp.Attr.Stalled += d
		case SegBackoff:
			sp.Attr.Backoff += d
		default:
			panic(fmt.Sprintf("obs: span builder: unknown segment kind %d", int(seg.Kind)))
		}
	}
	sp.Response = sp.Attr.Sum()
	if !sp.Shed {
		sp.Completed = true
		sp.Tardiness = ev.Tardiness
		if t := b.set.ByID(sp.Txn); t != nil && t.Length > 0 {
			sp.Slowdown = sp.Response / t.Length
		}
		b.observe(sp, st.classIdx, modeIdx)
	}
	st.active = false
	st.span = nil
	b.openCount--
	//lint:ignore hotpath-alloc completed spans are retained (bounded by Keep) by design
	b.done = append(b.done, sp)
	b.total++
	if b.opts.Keep > 0 && len(b.done) > 2*b.opts.Keep {
		b.compact()
	}
}

// compact drops the oldest spans once the done list exceeds 2×Keep,
// recycling them into the free list and sliding the retained tail to the
// front in place. Amortized: runs once per Keep completions, and the free
// list is bounded by the spans in flight between compactions.
func (b *SpanBuilder) compact() {
	cut := len(b.done) - b.opts.Keep
	//lint:ignore hotpath-alloc free-list growth is bounded by Keep and amortized by the 2×Keep compaction trigger
	b.free = append(b.free, b.done[:cut]...)
	n := copy(b.done, b.done[cut:])
	for i := n; i < len(b.done); i++ {
		b.done[i] = nil
	}
	b.done = b.done[:n]
}

// observe feeds one completed span into the registry sketches: the run
// totals and, with a window set, its (window, class, mode) cell, under the
// span family's one lock. The cell's label id comes from the builder's
// per-pair table and the cell from the family's dense index, so the
// completion path renders no name and allocates nothing beyond amortized
// slab growth.
func (b *SpanBuilder) observe(sp *Span, class, mode int8) {
	f := b.fam
	if f == nil {
		if b.opts.Metrics == nil {
			return
		}
		f = b.initFamily()
	}
	win, label := int32(0), int32(-1)
	if b.opts.Window > 0 {
		win = int32(sp.Finish / b.opts.Window)
		i := int(mode)*NumWeightClasses + int(class)
		if i >= len(b.labels) || b.labels[i] == 0 {
			b.internLabel(i, class, mode)
		}
		label = b.labels[i] - 1
	}
	f.observe(win, label, sp.Tardiness, sp.Response, sp.Slowdown)
}

// initFamily registers the run-total sketches and resolves the registry's
// span family — lazily, at the first completed span, so a builder that never
// observes anything registers no metrics.
//
//lint:coldpath run-total sketch registration happens once per run
func (b *SpanBuilder) initFamily() *spanSketches {
	reg := b.opts.Metrics
	for k, name := range spanTotals {
		reg.Sketch(name, spanTotalHelp[k])
	}
	b.fam = reg.spanFamily()
	return b.fam
}

// internLabel records the family's label id of (class, mode) at index i of
// the builder's label table, growing the table when a new mode name
// appeared.
//
//lint:coldpath runs once per (class, mode) pair, not per window or completion
func (b *SpanBuilder) internLabel(i int, class, mode int8) {
	if n := len(b.modeNames) * NumWeightClasses; len(b.labels) < n {
		b.labels = append(b.labels, make([]int32, n-len(b.labels))...)
	}
	b.labels[i] = b.fam.label(classNames[class], b.modeNames[mode]) + 1
}

// Spans returns the retained closed spans in close order (completion or shed
// instant). The returned slice is fresh; the spans are shared and must be
// treated as read-only. With a Keep bound, further emissions may recycle
// compacted-away spans, so Spans is intended for post-run (quiescent) use —
// concurrent readers should use Snapshot, which deep-copies.
func (b *SpanBuilder) Spans() []*Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*Span(nil), b.done...)
}

// Snapshot returns up to limit closed spans, newest first, as value copies
// with deep-copied segment lists — safe to hold while emission continues and
// recycles pooled spans. The backing store of the server's /api/spans
// endpoint. limit <= 0 means every retained span.
func (b *SpanBuilder) Snapshot(limit int) []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.done)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Span, 0, limit)
	for i := 0; i < limit; i++ {
		sp := *b.done[n-1-i]
		sp.Segments = append([]Segment(nil), sp.Segments...)
		out = append(out, sp)
	}
	return out
}

// Total returns the number of spans ever closed (not just retained).
func (b *SpanBuilder) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// RetainedBytes estimates the memory the builder pins: retained and
// free-listed spans with their segment arrays, the dense per-transaction
// state table, and the windowed sketch cells it writes to — their slabs,
// dense index rows and bucket arrays. Cold; called at scrape time.
func (b *SpanBuilder) RetainedBytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	spanSize := int(unsafe.Sizeof(Span{}))
	segSize := int(unsafe.Sizeof(Segment{}))
	total := len(b.states) * int(unsafe.Sizeof(spanState{}))
	for _, sp := range b.done {
		total += spanSize + cap(sp.Segments)*segSize
	}
	for _, sp := range b.free {
		total += spanSize + cap(sp.Segments)*segSize
	}
	if b.fam != nil {
		total += b.fam.retainedBytes() + 4*cap(b.labels)
	}
	// Arena capacity not yet handed out (handed-out regions are already
	// counted through the done/free spans that own them).
	total += (len(b.spanArena) - b.arenaN) * spanSize
	total += (len(b.segArena) - b.segN) * segSize
	return total
}
