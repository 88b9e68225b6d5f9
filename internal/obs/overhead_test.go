package obs

import (
	"testing"
	"time"
)

func TestOverheadStats(t *testing.T) {
	ov := NewOverhead()
	ov.CountEvents(1)
	ov.CountEvents(1)
	ov.AddNanos(40)
	ov.AddNanos(2)
	ov.CountPoolHit()
	ov.CountPoolHit()
	ov.CountPoolHit()
	ov.CountPoolMiss()
	got := ov.Stats()
	want := OverheadStats{Events: 2, InstrNanos: 42, PoolHits: 3, PoolMisses: 1}
	if got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestTimedAttributesTime drives a Timed sink with a deterministic fake
// clock that advances 1µs per reading. Each single Emit takes two readings
// (before/after fan-out), so exactly 1µs per event is attributed; a batch
// takes two readings for the whole batch and counts every event in it.
func TestTimedAttributesTime(t *testing.T) {
	col := &Collector{}
	ov := NewOverhead()
	clock := time.Unix(0, 0)
	reads := 0
	now := func() time.Time {
		reads++
		clock = clock.Add(time.Microsecond)
		return clock
	}
	timed := NewTimed(col, ov, now)
	for i := 0; i < 3; i++ {
		timed.Emit(Event{Time: float64(i), Kind: KindArrival, Txn: -1, Workflow: -1})
	}
	if n := len(col.Events()); n != 3 {
		t.Fatalf("inner sink got %d events, want 3", n)
	}
	stats := ov.Stats()
	if stats.Events != 3 || reads != 6 {
		t.Fatalf("events counted %d with %d clock reads, want 3 and 6", stats.Events, reads)
	}
	if stats.InstrNanos != 3*time.Microsecond.Nanoseconds() {
		t.Fatalf("attributed %dns, want 3000ns", stats.InstrNanos)
	}

	const n = 5
	batch := make([]Event, n)
	for i := range batch {
		batch[i] = Event{Time: float64(3 + i), Kind: KindArrival, Txn: -1, Workflow: -1}
	}
	timed.EmitSharedBatch(batch)
	if got := len(col.Events()); got != 3+n {
		t.Fatalf("inner sink got %d events after the batch, want %d", got, 3+n)
	}
	stats = ov.Stats()
	if stats.Events != 3+n || reads != 8 {
		t.Fatalf("batch: events counted %d with %d clock reads, want %d and 8", stats.Events, reads, 3+n)
	}
	if stats.InstrNanos != 4*time.Microsecond.Nanoseconds() {
		t.Fatalf("batch: attributed %dns, want 4000ns", stats.InstrNanos)
	}
}

// TestTimedNilClock: without a clock the wrapper counts events but never
// attributes time — the FakeClock/determinism configuration.
func TestTimedNilClock(t *testing.T) {
	col := &Collector{}
	ov := NewOverhead()
	timed := NewTimed(col, ov, nil)
	timed.Emit(Event{Time: 1, Kind: KindDispatch, Txn: 0, Workflow: -1})
	if n := len(col.Events()); n != 1 {
		t.Fatalf("inner sink got %d events, want 1", n)
	}
	stats := ov.Stats()
	if stats.Events != 1 || stats.InstrNanos != 0 {
		t.Fatalf("stats %+v, want 1 event and zero nanos", stats)
	}
}

func TestReadRuntimeSample(t *testing.T) {
	s := ReadRuntimeSample()
	if s.HeapBytes == 0 {
		t.Error("heap bytes gauge read as zero")
	}
	if s.Goroutines == 0 {
		t.Error("goroutine gauge read as zero")
	}
}
