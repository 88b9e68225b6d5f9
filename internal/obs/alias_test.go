package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/txn"
)

// aliasBatch returns a small event batch in a caller-owned buffer, the way
// the instrumentation layer stages events: the same backing array is reused
// for every batch, so sinks must capture by copy.
func aliasBatch(start int) []Event {
	evs := make([]Event, 4)
	for i := range evs {
		evs[i] = Event{
			Time:     float64(start + i),
			Kind:     KindArrival,
			Txn:      txn.ID(start + i),
			Workflow: -1,
			Deadline: float64(start + i + 10),
		}
	}
	return evs
}

// TestRingBatchReuseDoesNotAliasSnapshot overwrites the emitted batch buffer
// after EmitSharedBatch returns and checks the ring's retained copies do not
// move — the borrow contract that makes the zero-allocation staging buffer
// safe.
func TestRingBatchReuseDoesNotAliasSnapshot(t *testing.T) {
	r := NewRing(16)
	buf := aliasBatch(0)
	r.EmitSharedBatch(buf)
	before := r.Snapshot(0)
	for i := range buf {
		buf[i] = Event{Time: -1, Kind: KindDeadlineMiss, Txn: -1, Workflow: -1, Detail: "clobbered"}
	}
	after := r.Snapshot(0)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("snapshot changed after batch buffer reuse:\nbefore %+v\nafter  %+v", before, after)
	}
	for _, ev := range after {
		if ev.Detail == "clobbered" || ev.Time < 0 {
			t.Fatalf("ring retained an aliased event: %+v", ev)
		}
	}
}

// TestRingBatchMatchesSingleEmit feeds the same stream once event-at-a-time
// and once in uneven batches (forcing mid-batch wraps) and requires the two
// rings to retain identical contents, Seq stamps included.
func TestRingBatchMatchesSingleEmit(t *testing.T) {
	single, batched := NewRing(8), NewRing(8)
	stream := aliasBatch(0)
	stream = append(stream, aliasBatch(4)...)
	stream = append(stream, aliasBatch(8)...) // 12 events through a cap-8 ring

	for i := range stream {
		single.EmitShared(&stream[i])
	}
	for lo := 0; lo < len(stream); {
		hi := lo + 5 // uneven chunks: 5,5,2 — wraps land mid-batch
		if hi > len(stream) {
			hi = len(stream)
		}
		batched.EmitSharedBatch(stream[lo:hi])
		lo = hi
	}

	if single.Total() != batched.Total() {
		t.Fatalf("totals differ: single %d, batched %d", single.Total(), batched.Total())
	}
	if got, want := batched.Snapshot(0), single.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched ring diverged from single-emit ring:\nbatched %+v\nsingle  %+v", got, want)
	}
}

// TestRingBatchLargerThanCapacity pushes one batch bigger than the ring and
// checks the newest events win, exactly as event-at-a-time emission would
// leave them.
func TestRingBatchLargerThanCapacity(t *testing.T) {
	r := NewRing(4)
	stream := append(aliasBatch(0), aliasBatch(4)...) // 8 events, cap 4
	r.EmitSharedBatch(stream)
	if r.Total() != 8 {
		t.Fatalf("total %d, want 8", r.Total())
	}
	snap := r.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap))
	}
	for i, ev := range snap { // newest first: txns 7,6,5,4 with Seq 7,6,5,4
		if want := txn.ID(7 - i); ev.Txn != want || ev.Seq != uint64(7-i) {
			t.Fatalf("snapshot[%d] = txn %d seq %d, want txn %d seq %d", i, ev.Txn, ev.Seq, want, want)
		}
	}
}

// TestCollectorBatchReuseDoesNotAlias is the Collector-side aliasing
// regression: mutating the batch buffer after emission must not reach the
// collected stream, and batched appends must stamp the same Seq values as
// single emits.
func TestCollectorBatchReuseDoesNotAlias(t *testing.T) {
	c := &Collector{}
	buf := aliasBatch(0)
	c.EmitSharedBatch(buf)
	for i := range buf {
		buf[i].Detail = "clobbered"
	}
	c.EmitSharedBatch(buf[:1])
	evs := c.Events()
	if len(evs) != 5 {
		t.Fatalf("collected %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i < 4 && ev.Detail == "clobbered" {
			t.Fatalf("collector aliased the reused batch buffer: %+v", ev)
		}
	}
}

// countingSink implements only the plain Sink interface, so EmitBatch must
// fall back to one Emit per event for it.
type countingSink struct {
	evs []Event
}

func (s *countingSink) Emit(ev Event) { s.evs = append(s.evs, ev) }

// fanOutStream is a time-ordered decision stream over fanOutSet: each
// transaction arrives, runs, is preempted, runs again and completes, and the
// odd ones miss their deadline.
func fanOutStream(n int) []Event {
	var evs []Event
	for i := 0; i < n; i++ {
		at, id := float64(3*i), txn.ID(i)
		dl := at + 3
		if i%2 == 1 {
			dl = at + 2
		}
		evs = append(evs,
			Event{Time: at, Kind: KindArrival, Txn: id, Workflow: -1, Deadline: dl, Remaining: 2},
			Event{Time: at, Kind: KindDispatch, Txn: id, Workflow: -1, Deadline: dl, Remaining: 2},
			Event{Time: at + 0.5, Kind: KindPreempt, Txn: id, Workflow: -1, Deadline: dl, Remaining: 1.5},
			Event{Time: at + 1, Kind: KindDispatch, Txn: id, Workflow: -1, Deadline: dl, Remaining: 1.5},
			Event{Time: at + 2.5, Kind: KindCompletion, Txn: id, Workflow: -1, Deadline: dl, Tardiness: max(0, at+2.5-dl)})
		if at+2.5 > dl {
			evs = append(evs, Event{Time: at + 2.5, Kind: KindDeadlineMiss, Txn: id, Workflow: -1, Deadline: dl, Tardiness: at + 2.5 - dl})
		}
	}
	return evs
}

// fanOutSet is the workload fanOutStream describes, with weights spread
// over every SLA class.
func fanOutSet(t *testing.T, n int) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, n)
	for i := range txns {
		txns[i] = &txn.Transaction{
			ID: txn.ID(i), Arrival: float64(3 * i), Deadline: float64(3*i + 3),
			Length: 2, Weight: float64(1 + i%10), Remaining: 2,
		}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fanOut is one wiring of every sink shape behind one nested Tee: a
// batch-native Ring, a Tee of a Collector and a SpanBuilder, a plain Sink,
// and a Timed meter over its own Collector.
type fanOut struct {
	ring      *Ring
	col, tcol *Collector
	spans     *SpanBuilder
	plain     *countingSink
	reg       *Registry
	ov        *Overhead
	sink      Sink
}

func newFanOut(set *txn.Set) *fanOut {
	f := &fanOut{
		ring: NewRing(64), col: &Collector{}, tcol: &Collector{},
		plain: &countingSink{}, reg: NewRegistry(), ov: NewOverhead(),
	}
	f.spans = NewSpanBuilder(set, SpanOptions{Metrics: f.reg, Window: 50})
	f.sink = Tee(f.ring, Tee(f.col, f.spans), f.plain, NewTimed(f.tcol, f.ov, nil))
	return f
}

// spanJSONL renders the builder's closed spans as JSONL.
func (f *fanOut) spanJSONL(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpans(&buf, f.spans.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEmitBatchFansOutInOrder sends one stream through EmitBatch over a
// nested Tee of every sink shape, in batches of 1, 3 and 128 events copied
// into one reused staging buffer, and requires every sink to end in exactly
// the state per-event Emit of the same stream leaves: ring snapshot,
// collector streams, plain-sink stream, span JSONL and registry snapshot.
func TestEmitBatchFansOutInOrder(t *testing.T) {
	const n = 100
	set := fanOutSet(t, n)
	stream := fanOutStream(n)

	want := newFanOut(set)
	for _, ev := range stream {
		want.sink.Emit(ev)
	}
	wantSpans := want.spanJSONL(t)
	if len(want.col.Events()) != len(stream) || want.spans.Total() != n {
		t.Fatalf("reference wiring saw %d events and %d spans", len(want.col.Events()), want.spans.Total())
	}

	for _, split := range []int{1, 3, 128} {
		got := newFanOut(set)
		buf := make([]Event, split)
		for lo := 0; lo < len(stream); lo += split {
			c := copy(buf, stream[lo:])
			EmitBatch(got.sink, buf[:c])
			clear(buf) // reused: every sink must have captured by copy
		}
		EmitBatch(got.sink, buf[:0]) // an empty batch is a no-op

		if !reflect.DeepEqual(got.ring.Snapshot(0), want.ring.Snapshot(0)) {
			t.Errorf("split %d: ring snapshot differs", split)
		}
		if !reflect.DeepEqual(got.col.Events(), want.col.Events()) {
			t.Errorf("split %d: collector stream differs", split)
		}
		if !reflect.DeepEqual(got.tcol.Events(), want.tcol.Events()) {
			t.Errorf("split %d: timed collector stream differs", split)
		}
		if !reflect.DeepEqual(got.plain.evs, want.plain.evs) {
			t.Errorf("split %d: plain sink stream differs", split)
		}
		if s := got.spanJSONL(t); s != wantSpans {
			t.Errorf("split %d: span JSONL differs", split)
		}
		if !reflect.DeepEqual(got.reg.Snapshot(), want.reg.Snapshot()) {
			t.Errorf("split %d: registry snapshot differs", split)
		}
		if e := got.ov.Stats().Events; e != uint64(len(stream)) {
			t.Errorf("split %d: timed meter counted %d events, want %d", split, e, len(stream))
		}
	}
}

// TestSpanSnapshotImmuneToPoolReuse takes a deep snapshot, then keeps
// emitting until Keep-compaction recycles the snapshotted span's pooled
// storage, and requires the held snapshot to stay bit-identical — the
// mutate-after-emit regression for the span arena.
func TestSpanSnapshotImmuneToPoolReuse(t *testing.T) {
	set := spanTestSet(t)
	b := NewSpanBuilder(set, SpanOptions{Keep: 1})
	emitAll(b, []Event{
		{Time: 0, Kind: KindArrival, Txn: 0, Workflow: -1, Deadline: 10},
		{Time: 0, Kind: KindDispatch, Txn: 0, Workflow: -1},
		{Time: 4, Kind: KindCompletion, Txn: 0, Workflow: -1},
	})
	snap := b.Snapshot(0)
	if len(snap) != 1 || snap[0].Txn != 0 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	held := Span{}
	held = snap[0]
	held.Segments = append([]Segment(nil), snap[0].Segments...)

	// Two more lifecycles: Keep=1 compaction recycles txn 0's span and its
	// segment storage into the free list, where txn 3 reuses it.
	emitAll(b, []Event{
		{Time: 4, Kind: KindArrival, Txn: 2, Workflow: -1, Deadline: 12},
		{Time: 4, Kind: KindDispatch, Txn: 2, Workflow: -1},
		{Time: 6, Kind: KindCompletion, Txn: 2, Workflow: -1},
		{Time: 6, Kind: KindArrival, Txn: 3, Workflow: -1, Deadline: 30},
		{Time: 6, Kind: KindDispatch, Txn: 3, Workflow: -1},
		{Time: 11, Kind: KindCompletion, Txn: 3, Workflow: -1},
	})

	if snap[0].Txn != held.Txn || snap[0].Finish != held.Finish || snap[0].Response != held.Response {
		t.Fatalf("held snapshot mutated by pool reuse: %+v, want %+v", snap[0], held)
	}
	if !reflect.DeepEqual(snap[0].Segments, held.Segments) {
		t.Fatalf("held snapshot segments mutated by pool reuse: %+v, want %+v", snap[0].Segments, held.Segments)
	}
	checkSpanInvariants(t, snap[0])
}

// TestStagedEmitHammer is the -race target for the staged event path: one
// writer reusing a single staging buffer for every batch — exactly what the
// decision-loop observer does — against concurrent snapshot readers on the
// ring, the collector and the span builder.
func TestStagedEmitHammer(t *testing.T) {
	txns := make([]*txn.Transaction, 256)
	for i := range txns {
		txns[i] = &txn.Transaction{
			ID: txn.ID(i), Arrival: float64(i), Deadline: float64(i + 10),
			Length: 1, Weight: 1, Remaining: 1,
		}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(64)
	col := &Collector{}
	sb := NewSpanBuilder(set, SpanOptions{Keep: 16})
	sink := Tee(ring, col, sb)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ring.Snapshot(16)
				ring.Total()
				if n := len(col.Events()); n < 0 {
					panic("unreachable")
				}
				sb.Snapshot(8)
				sb.Total()
			}
		}()
	}

	var buf [3]Event // reused staging buffer, as in the observer
	for i := range txns {
		at := float64(i)
		id := txn.ID(i)
		buf[0] = Event{Time: at, Kind: KindArrival, Txn: id, Workflow: -1, Deadline: at + 10}
		buf[1] = Event{Time: at, Kind: KindDispatch, Txn: id, Workflow: -1}
		buf[2] = Event{Time: at + 1, Kind: KindCompletion, Txn: id, Workflow: -1}
		EmitBatch(sink, buf[:])
	}
	close(stop)
	wg.Wait()

	if ring.Total() != uint64(3*len(txns)) {
		t.Fatalf("ring total %d, want %d", ring.Total(), 3*len(txns))
	}
	if got := sb.Total(); got != uint64(len(txns)) {
		t.Fatalf("span total %d, want %d", got, len(txns))
	}
}
