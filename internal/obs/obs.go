// Package obs is the unified instrumentation layer of the repository: a
// stdlib-only observability stack threaded through the simulator, the
// scheduling policies, the online executor and the web server.
//
// It has three parts:
//
//   - a metrics registry (registry.go): named counters, gauges and
//     histogram handles with atomic hot-path updates and a deterministic
//     snapshot API, exportable in Prometheus text format (prom.go);
//   - a structured decision-event stream (this file): schedulers and the
//     sim/executor emit typed Events through a Sink — a no-op Discard sink
//     for zero-overhead disabled runs, a bounded in-memory Ring for live
//     endpoints, a Collector for post-run analysis, and a JSONLWriter for
//     `asetssim -events out.jsonl`;
//   - export surfaces: Prometheus text (prom.go) and a Chrome trace-event
//     timeline loadable in Perfetto (timeline.go).
//
// Determinism: events are stamped exclusively from simulated/virtual time
// (the `now` of the scheduling decision), never from the host clock, so a
// fixed-seed run produces a byte-identical event stream on every replay.
// The package is inside the asetslint determinism scope, which enforces
// this statically.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"

	"repro/internal/txn"
)

// Kind classifies one scheduling decision event.
type Kind int

const (
	// KindArrival — a transaction was submitted to the scheduler.
	KindArrival Kind = iota
	// KindDispatch — the scheduler checked a transaction out to a server.
	KindDispatch
	// KindPreempt — a running transaction was set aside unfinished.
	KindPreempt
	// KindCompletion — a transaction finished.
	KindCompletion
	// KindDeadlineMiss — a transaction finished past its deadline
	// (emitted in addition to KindCompletion).
	KindDeadlineMiss
	// KindAging — balance-aware ASETS* activated T_old out of priority
	// order (Section III-D aging).
	KindAging
	// KindModeSwitch — an ASETS* scheduling entity migrated between the
	// EDF-List and the HDF-List (its representative expired).
	KindModeSwitch
	// KindAbort — a transaction's completion attempt aborted (fault
	// injection) or its in-flight work was lost to a backend crash; Detail
	// distinguishes "abort" from "crash".
	KindAbort
	// KindRestart — an aborted transaction re-entered the scheduler after
	// its backoff expired.
	KindRestart
	// KindStall — the backend entered a stall/crash outage window; Detail
	// carries the window kind, Remaining its duration.
	KindStall
	// KindShed — the admission controller rejected an arriving transaction;
	// Detail names the controller.
	KindShed
	// KindDegradeEnter — the admission controller crossed into degradation
	// mode.
	KindDegradeEnter
	// KindDegradeExit — the admission controller left degradation mode.
	KindDegradeExit
	// KindRoute — the cluster routing tier assigned an arriving transaction
	// to an instance; Detail carries the instance index.
	KindRoute
	// KindFailover — a transaction lost to an instance crash was re-enqueued
	// to a surviving instance (Detail "to<-from") or permanently dropped
	// because its retry budget ran out (Detail "lost").
	KindFailover
	// KindEject — the cluster circuit-breaker ejected a crashed instance
	// from the routing set; Detail carries the instance index.
	KindEject
	// KindRecover — an ejected instance's circuit-breaker half-opened after
	// its outage window ended; Detail carries the instance index.
	KindRecover
	// KindValidateFail — a transaction failed commit-time read-set
	// validation and was rewound for re-execution with a new incarnation
	// (docs/CONTENTION.md); Remaining carries the rewound full length.
	KindValidateFail
	// KindConflictDefer — a conflict-aware policy skipped a queued
	// transaction predicted to conflict with busy work and stole a later
	// non-conflicting one; Txn is the deferred transaction.
	KindConflictDefer
	// KindAlertFire — an SLO burn-rate alert rule started firing at a
	// window boundary; Detail names the rule ("class/rule"), Deadline
	// carries the fast-window burn ratio at fire time (internal/slo).
	KindAlertFire
	// KindAlertResolve — a firing SLO alert rule cleared after its
	// hysteresis window; Detail names the rule, Deadline the fast-window
	// burn ratio at resolve time.
	KindAlertResolve
)

// NumKinds is the number of event kinds.
const NumKinds = int(KindAlertResolve) + 1

// kinds is the event taxonomy, one row per Kind: the kind's stable wire
// name and, when its events feed a /metrics counter, the counter's name and
// HELP text (empty when none does). It is the only place a kind maps to a
// counter; Counters folds events through it.
var kinds = [NumKinds]struct{ name, counter, help string }{
	KindArrival:       {"arrival", "asets_sched_arrivals_total", "transactions submitted to the scheduler"},
	KindDispatch:      {"dispatch", "asets_sched_dispatches_total", "transactions checked out to a server"},
	KindPreempt:       {"preempt", "asets_sched_preemptions_total", "transactions returned unfinished after running"},
	KindCompletion:    {"completion", "asets_sched_completions_total", "transactions finished"},
	KindDeadlineMiss:  {"deadline_miss", "asets_sched_deadline_misses_total", "completions past the deadline"},
	KindAging:         {"aging", "asets_sched_aging_activations_total", "balance-aware T_old activations"},
	KindModeSwitch:    {"mode_switch", "asets_sched_mode_switches_total", "EDF/HDF scheduling-entity migrations"},
	KindAbort:         {"abort", "asets_fault_aborts_total", "transaction aborts (including crash losses)"},
	KindRestart:       {"restart", "asets_fault_restarts_total", "aborted transactions re-queued after backoff"},
	KindStall:         {"stall", "asets_fault_stalls_total", "backend stall/crash windows entered"},
	KindShed:          {"shed", "asets_admit_shed_total", "transactions shed by the admission controller"},
	KindDegradeEnter:  {name: "degrade_enter"},
	KindDegradeExit:   {name: "degrade_exit"},
	KindRoute:         {"route", "asets_cluster_routed_total", "transactions assigned to an instance by the routing tier"},
	KindFailover:      {"failover", "asets_cluster_failovers_total", "crash-lost transactions re-enqueued to a surviving instance"},
	KindEject:         {"eject", "asets_cluster_ejections_total", "instances ejected by the circuit-breaker"},
	KindRecover:       {"recover", "asets_cluster_recoveries_total", "ejected instances half-opened after recovery"},
	KindValidateFail:  {"validate_fail", "asets_contention_validate_fails_total", "commit-time validation failures forcing re-execution"},
	KindConflictDefer: {"conflict_defer", "asets_sched_conflict_defers_total", "queued transactions deferred by conflict-aware dispatch"},
	KindAlertFire:     {name: "alert_fire"},
	KindAlertResolve:  {name: "alert_resolve"},
}

// LostCounter is the one counter no kind owns: a failover event whose
// detail is "lost" dropped its transaction for good, and counts here
// instead of into the failover counter.
const LostCounter = "asets_cluster_lost_total"

// String returns the stable wire name of the kind, used in JSONL output,
// the /events endpoint and timeline exports.
func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		panic(fmt.Sprintf("obs: unknown event kind %d", int(k)))
	}
	return kinds[k].name
}

// Counter returns the name of the /metrics counter that counts the kind's
// events, or "" when none does.
//
//lint:testonly tests of several packages find a kind's /metrics counter through it
func (k Kind) Counter() string { return kinds[k].counter }

// Counters folds decision events into the /metrics counters of the kinds
// switched on by Register. The zero value counts nothing.
type Counters struct {
	kind [NumKinds]*Counter
	lost *Counter
}

// Register creates (or finds) in reg the counter of each of ks that has
// one, and counts their events from then on. The failover kind brings
// LostCounter along.
//
//lint:coldpath metric registration happens at wiring time
func (c *Counters) Register(reg *Registry, ks ...Kind) {
	for _, k := range ks {
		if row := kinds[k]; row.counter != "" {
			c.kind[k] = reg.Counter(row.counter, row.help)
		}
		if k == KindFailover {
			c.lost = reg.Counter(LostCounter, "transactions permanently lost (retry budget exhausted or failover disabled)")
		}
	}
}

// Count counts one event of kind k with detail into its kind's counter, if
// that is switched on; a failover whose detail is "lost" counts into
// LostCounter instead.
func (c *Counters) Count(k Kind, detail string) {
	n := c.kind[k]
	if k == KindFailover && detail == "lost" {
		n = c.lost
	}
	if n != nil {
		n.Inc()
	}
}

// Event is one scheduling decision, stamped with simulated time. The zero
// value of optional fields means "not applicable": Txn and Workflow use -1
// for that instead, because 0 is a valid ID.
type Event struct {
	// Seq is a per-sink monotone sequence number, stamped by the sink
	// (Ring, Collector, JSONLWriter) on receipt. Emitters leave it zero.
	Seq uint64
	// Time is the simulated/virtual time of the decision.
	Time float64
	// Kind classifies the decision.
	Kind Kind
	// Txn is the subject transaction, or -1 when the event concerns a
	// workflow or the scheduler as a whole.
	Txn txn.ID
	// Workflow is the subject scheduling entity, or -1.
	Workflow int
	// Deadline, Remaining and Tardiness carry the kind-specific numeric
	// payload (see docs/OBSERVABILITY.md for which kinds set which).
	Deadline  float64
	Remaining float64
	Tardiness float64
	// Detail is a short free-form qualifier, e.g. "edf->hdf".
	Detail string
}

// MarshalJSON renders the event as a single flat JSON object with a fixed
// field order, so serialized streams are byte-stable across runs.
func (e Event) MarshalJSON() ([]byte, error) {
	return e.encodeJSON(make([]byte, 0, 128)), nil
}

// encodeJSON writes MarshalJSON's encoding over buf's storage, growing it
// only when the event does not fit, and returns the encoded bytes.
func (e *Event) encodeJSON(buf []byte) []byte {
	b := buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendFloat(b, e.Time, 'g', -1, 64)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","txn":`...)
	b = strconv.AppendInt(b, int64(e.Txn), 10)
	if e.Workflow >= 0 {
		b = append(b, `,"wf":`...)
		b = strconv.AppendInt(b, int64(e.Workflow), 10)
	}
	if e.Deadline != 0 {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendFloat(b, e.Deadline, 'g', -1, 64)
	}
	if e.Remaining != 0 {
		b = append(b, `,"remaining":`...)
		b = strconv.AppendFloat(b, e.Remaining, 'g', -1, 64)
	}
	if e.Tardiness != 0 {
		b = append(b, `,"tardiness":`...)
		b = strconv.AppendFloat(b, e.Tardiness, 'g', -1, 64)
	}
	if e.Detail != "" {
		// A JSON string: quotes and backslashes escaped, control characters
		// as \u00XX, the rest as UTF-8 with each invalid byte replaced by
		// U+FFFD, as a JSON decoder reads it. For printable ASCII this is
		// what strconv.AppendQuote writes.
		const hex = "0123456789abcdef"
		b = append(b, `,"detail":"`...)
		for i := 0; i < len(e.Detail); {
			c := e.Detail[i]
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c < 0x20:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			case c < utf8.RuneSelf:
				b = append(b, c)
			default:
				r, n := utf8.DecodeRuneInString(e.Detail[i:])
				b = utf8.AppendRune(b, r)
				i += n
				continue
			}
			i++
		}
		b = append(b, '"')
	}
	return append(b, '}')
}

// KindFromString is the inverse of Kind.String.
func KindFromString(s string) (Kind, error) {
	for k, row := range kinds {
		if row.name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// UnmarshalJSON is the inverse of MarshalJSON, so Go consumers of the JSONL
// stream and the /events endpoint can decode events back. Absent optional
// fields restore their "not applicable" defaults (-1 for Txn/Workflow).
func (e *Event) UnmarshalJSON(data []byte) error {
	var w struct {
		Seq       uint64  `json:"seq"`
		Time      float64 `json:"t"`
		Kind      string  `json:"kind"`
		Txn       *int64  `json:"txn"`
		Workflow  *int    `json:"wf"`
		Deadline  float64 `json:"deadline"`
		Remaining float64 `json:"remaining"`
		Tardiness float64 `json:"tardiness"`
		Detail    string  `json:"detail"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, err := KindFromString(w.Kind)
	if err != nil {
		return err
	}
	*e = Event{
		Seq: w.Seq, Time: w.Time, Kind: k, Txn: -1, Workflow: -1,
		Deadline: w.Deadline, Remaining: w.Remaining, Tardiness: w.Tardiness,
		Detail: w.Detail,
	}
	if w.Txn != nil {
		e.Txn = txn.ID(*w.Txn)
	}
	if w.Workflow != nil && *w.Workflow >= 0 {
		// Any negative workflow means "not applicable", as in MarshalJSON.
		e.Workflow = *w.Workflow
	}
	return nil
}

// Sink receives decision events. Implementations stamp Event.Seq; emitters
// must treat the event as sent once Emit returns. Emit must be safe for use
// from the single simulation/executor goroutine; sinks that are also read
// concurrently (Ring) do their own locking.
type Sink interface {
	Emit(Event)
}

// SharedSink is the zero-copy variant of Sink: EmitShared receives a pointer
// to an event the caller owns and will reuse for the next emission. The sink
// borrows the event only for the duration of the call — anything it retains
// must be captured by copy before returning (Ring and Collector store a copy
// in their own buffers).
type SharedSink interface {
	EmitShared(*Event)
}

// BatchSink is the batched variant of SharedSink: EmitSharedBatch receives a
// slice of events the caller owns and will overwrite for its next batch. The
// borrow contract is the same as EmitShared's — anything retained must be
// captured by copy before returning — but the sink amortizes its per-event
// synchronization (one lock acquisition per batch instead of per event).
// Events must be applied in slice order; the slice is never empty.
type BatchSink interface {
	EmitSharedBatch([]Event)
}

// EmitBatch delivers a batch to sink in slice order: a BatchSink gets the
// whole batch in one call, any other sink one Emit per event. It is the one
// delivery path from the observer's staging buffer to the sink chain; the
// batch is borrowed under the BatchSink contract, so the caller may overwrite
// it as soon as EmitBatch returns.
//
//lint:hotpath
func EmitBatch(sink Sink, evs []Event) {
	if len(evs) == 0 {
		return
	}
	if bs, ok := sink.(BatchSink); ok {
		bs.EmitSharedBatch(evs)
		return
	}
	for i := range evs {
		sink.Emit(evs[i])
	}
}

// discard is the no-op sink.
type discard struct{}

func (discard) Emit(Event) {}

// Discard drops every event: the zero-overhead default for uninstrumented
// runs. Instrumentation sites may also skip emission entirely when their
// sink is nil; Discard exists so call sites can hold a non-nil Sink
// unconditionally.
var Discard Sink = discard{}

// Tee fans every event out to each sink in order. Nil sinks are skipped.
func Tee(sinks ...Sink) Sink {
	out := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil && s != Discard {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return Discard
	case 1:
		return out[0]
	}
	return tee(out)
}

type tee []Sink

func (t tee) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// EmitSharedBatch implements BatchSink: each sink gets the whole batch
// through EmitBatch, in wiring order.
func (t tee) EmitSharedBatch(evs []Event) {
	for _, s := range t {
		EmitBatch(s, evs)
	}
}

// Ring is a bounded in-memory event buffer: the newest Cap events are
// retained and older ones overwritten. It is safe for one writer and many
// concurrent readers — the backing store of the server's /events endpoint.
type Ring struct {
	mu   sync.Mutex
	buf  []Event // full-length (len == cap); slots [0, min(seq, cap)) are filled
	next int     // slot the next event lands in
	seq  uint64  // total events ever emitted; also the next Seq stamp
	cap  int
}

// NewRing returns a ring retaining the newest capacity events. The buffer is
// allocated at full length up front, so the emit path indexes into it and
// never appends.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic(fmt.Sprintf("obs: ring capacity %d must be positive", capacity))
	}
	return &Ring{cap: capacity, buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(ev Event) { r.EmitShared(&ev) }

// EmitShared implements SharedSink: the borrowed event is captured by copy
// into the ring's own slot before the call returns. The Seq stamp is not
// stored — a retained event's sequence number is its emission position,
// recomputed from the ring counters by Snapshot, so the emit path does no
// per-event work beyond the copy itself.
func (r *Ring) EmitShared(ev *Event) {
	r.mu.Lock()
	r.buf[r.next] = *ev
	r.seq++
	r.next++
	if r.next == r.cap {
		r.next = 0
	}
	r.mu.Unlock()
}

// EmitSharedBatch implements BatchSink: the whole batch is captured under one
// lock acquisition, in slice order. Each contiguous chunk lands via one
// copy() — one write-barrier sweep per chunk where per-event struct
// assignments pay it per event — and Seq stamping is deferred to Snapshot,
// so the locked section is nothing but the bulk copies.
//
//lint:hotpath
func (r *Ring) EmitSharedBatch(evs []Event) {
	r.mu.Lock()
	r.seq += uint64(len(evs))
	for len(evs) > 0 {
		c := copy(r.buf[r.next:r.cap], evs)
		r.next += c
		if r.next == r.cap {
			r.next = 0
		}
		evs = evs[c:]
	}
	r.mu.Unlock()
}

// Total returns the number of events ever emitted (not just retained).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// RetainedBytes estimates the memory the ring pins for its event buffer.
func (r *Ring) RetainedBytes() int {
	return r.cap * int(unsafe.Sizeof(Event{}))
}

// Snapshot returns up to limit retained events, newest first. limit <= 0
// means everything retained. Seq stamps are applied here, to the returned
// copies: the i-th newest retained event was emission number seq-1-i, so the
// stamp is pure arithmetic and the emit path never stores it.
func (r *Ring) Snapshot(limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.cap
	if r.seq < uint64(r.cap) {
		n = int(r.seq)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Event, 0, limit)
	for i := 0; i < limit; i++ {
		// Newest element sits just before next (mod cap).
		idx := (r.next - 1 - i + 2*r.cap) % r.cap
		out = append(out, r.buf[idx])
		out[i].Seq = r.seq - 1 - uint64(i)
	}
	return out
}

// Collector retains every event in emission order — the input of the
// timeline exporter and of post-run analyses where the full stream matters.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) { c.EmitShared(&ev) }

// EmitShared implements SharedSink: the borrowed event is captured by copy
// into the collector's backing store, with the Seq stamp applied to the
// stored copy only.
func (c *Collector) EmitShared(ev *Event) {
	c.mu.Lock()
	//lint:ignore hotpath-alloc Collector retains the full stream by design (timeline export, post-run analysis)
	c.events = append(c.events, *ev)
	c.events[len(c.events)-1].Seq = uint64(len(c.events) - 1)
	c.mu.Unlock()
}

// EmitSharedBatch implements BatchSink: the whole batch is appended under one
// lock acquisition, in slice order.
func (c *Collector) EmitSharedBatch(evs []Event) {
	c.mu.Lock()
	for i := range evs {
		//lint:ignore hotpath-alloc Collector retains the full stream by design (timeline export, post-run analysis)
		c.events = append(c.events, evs[i])
		c.events[len(c.events)-1].Seq = uint64(len(c.events) - 1)
	}
	c.mu.Unlock()
}

// Events returns the collected stream in emission order. The returned slice
// is the collector's own backing store; callers must not emit concurrently
// with reading it.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// JSONLWriter serializes each event as one JSON line — the sink behind
// `asetssim -events out.jsonl`. Writes are buffered; call Flush before
// closing the underlying writer. The first write error sticks and is
// reported by Flush/Err; later events are dropped.
type JSONLWriter struct {
	w   *bufio.Writer
	buf []byte // the line being encoded, reused across events
	seq uint64
	err error
}

// NewJSONLWriter returns a writer emitting one JSON object per line to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (j *JSONLWriter) Emit(ev Event) {
	if j.err != nil {
		return
	}
	ev.Seq = j.seq
	j.seq++
	j.buf = ev.encodeJSON(j.buf)
	_, err := j.w.Write(j.buf)
	if err == nil {
		err = j.w.WriteByte('\n')
	}
	if err != nil {
		j.err = err
	}
}

// Flush drains the buffer and returns the first error seen, if any.
func (j *JSONLWriter) Flush() error {
	if err := j.w.Flush(); j.err == nil && err != nil {
		j.err = err
	}
	return j.err
}

// ReadJSONL parses a JSONL event stream — the inverse of JSONLWriter, and
// the entry point of the post-run report generator (cmd/asetsreport). Blank
// lines are skipped; a malformed line fails with its 1-based line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evs []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := ev.UnmarshalJSON(raw); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	return evs, nil
}
