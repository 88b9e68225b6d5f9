package obs

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// Overhead is the observability layer's self-telemetry: a handful of atomic
// counters that measure what observing costs. The live server wires one
// through a Timed sink (events + wall-clock ns attributed to instrumentation)
// and the span builder (pool hit/miss); the totals surface on /api/stats and
// /metrics so the overhead budget is itself observable.
//
// All updates are single atomic adds, cheap enough for the event fast path.
type Overhead struct {
	events     atomic.Uint64
	nanos      atomic.Int64
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
}

// NewOverhead returns a zeroed meter.
func NewOverhead() *Overhead { return &Overhead{} }

// CountEvents records n events fanned out through the instrumented path.
func (o *Overhead) CountEvents(n int) { o.events.Add(uint64(n)) }

// AddNanos attributes d nanoseconds of wall-clock time to instrumentation.
func (o *Overhead) AddNanos(d int64) { o.nanos.Add(d) }

// CountPoolHit records a span served from the free list.
func (o *Overhead) CountPoolHit() { o.poolHits.Add(1) }

// CountPoolMiss records a span that had to be freshly allocated.
func (o *Overhead) CountPoolMiss() { o.poolMisses.Add(1) }

// OverheadStats is a point-in-time copy of the meter.
type OverheadStats struct {
	// Events is the number of events fanned out through the timed path.
	Events uint64 `json:"events"`
	// InstrNanos is the wall-clock ns spent inside sink fan-out (zero under
	// a FakeClock, where instrumentation time does not advance the clock).
	InstrNanos int64 `json:"instr_ns"`
	// PoolHits / PoolMisses count span free-list reuse vs fresh allocation.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
}

// Stats snapshots the meter.
func (o *Overhead) Stats() OverheadStats {
	return OverheadStats{
		Events:     o.events.Load(),
		InstrNanos: o.nanos.Load(),
		PoolHits:   o.poolHits.Load(),
		PoolMisses: o.poolMisses.Load(),
	}
}

// Timed wraps a sink chain, attributing to an Overhead meter every event and
// the wall-clock time the chain's fan-out consumes. The clock is injected
// (the server passes its executor Clock's Now), keeping this package inside
// the determinism lint scope: under a FakeClock the attribution is zero and
// byte-stable; under a RealClock it is honest wall time.
//
// Timed is a BatchSink: a staged batch reaches the inner chain in one
// EmitBatch call, timed and counted with two clock reads and two atomic adds
// for the whole batch.
type Timed struct {
	sink Sink
	ov   *Overhead
	now  func() time.Time // nil: count events only, no time attribution
}

// NewTimed wraps sink with event counting into ov and, when now is non-nil,
// wall-clock attribution of the fan-out time.
//
//lint:coldpath sink wiring happens once at server construction
func NewTimed(sink Sink, ov *Overhead, now func() time.Time) *Timed {
	if sink == nil {
		sink = Discard
	}
	return &Timed{sink: sink, ov: ov, now: now}
}

// Emit implements Sink.
func (t *Timed) Emit(ev Event) {
	start := t.start()
	t.sink.Emit(ev)
	t.done(start, 1)
}

// EmitSharedBatch implements BatchSink.
func (t *Timed) EmitSharedBatch(evs []Event) {
	start := t.start()
	EmitBatch(t.sink, evs)
	t.done(start, len(evs))
}

// start reads the clock before a fan-out (the zero time without a clock).
func (t *Timed) start() time.Time {
	if t.now == nil {
		return time.Time{}
	}
	return t.now()
}

// done attributes the fan-out that began at start and counts its n events.
func (t *Timed) done(start time.Time, n int) {
	if t.now != nil {
		t.ov.AddNanos(t.now().Sub(start).Nanoseconds())
	}
	t.ov.CountEvents(n)
}

// runtimeSampleNames are the runtime/metrics series backing RuntimeSample,
// in struct field order.
var runtimeSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/goroutines:goroutines",
}

// RuntimeSample is a snapshot of the Go runtime gauges the observability
// layer exports about itself: live heap bytes, completed GC cycles and
// goroutine count. These are host facts, not simulation state — they are
// sampled at scrape time (/metrics, /api/stats) and never feed any
// deterministic output.
type RuntimeSample struct {
	HeapBytes  uint64 `json:"heap_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	Goroutines uint64 `json:"goroutines"`
}

// ReadRuntimeSample reads the runtime gauges via runtime/metrics. It is a
// cold scrape-time call; the two-slot sample slice is allocated per call.
func ReadRuntimeSample() RuntimeSample {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var out RuntimeSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		out.HeapBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		out.GCCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		out.Goroutines = samples[2].Value.Uint64()
	}
	return out
}
