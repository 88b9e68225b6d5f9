package executor

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Live-replay allocation bounds: the measured figures of the shape below
// (103.4 B and 0.0403 allocations per transaction with go1.24 on
// linux/amd64) plus a 20% margin. The run is single-goroutine, so the
// figures are a property of the code, not of the machine. When a window
// cell was three full sketches and a lock (about 330 bytes) behind a map,
// this shape allocated 278.3 B per transaction.
const (
	liveReplayBytesPerTxn  = 125
	liveReplayAllocsPerTxn = 0.048
)

// liveReplay runs set through the executor as asetsweb wires it: a FakeClock
// replay under ASETS* with instrumentation, the SLO engine, a 1024-event
// ring and spans with 100-unit windows and a Keep bound. Only Run is
// returned for measuring; the wiring is built first.
func liveReplay(t *testing.T, set *txn.Set) func() {
	reg := obs.NewRegistry()
	spans := obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: 100, Keep: 1024})
	ex := New(core.New(), set, Options{
		Clock:   NewFakeClock(time.Unix(0, 0)),
		Sink:    obs.Tee(obs.NewRing(1024), spans),
		Metrics: reg,
		SLO:     &slo.Config{Spec: slo.DefaultSpec(), Window: 100},
	})
	return func() {
		if n, err := ex.Run(context.Background()); err != nil || n != set.Len() {
			t.Fatalf("replay completed %d of %d: %v", n, set.Len(), err)
		}
	}
}

// TestLiveReplayBytes guards the bytes and allocations per transaction of
// the live-replay shape (30k weighted workflow transactions at utilization
// 0.8), measured over Run alone with runtime.MemStats after a warm-up run.
func TestLiveReplayBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation figures of 30k-transaction replays")
	}
	set := workload.MustGenerate(workload.Default(0.8, 1).WithWeights().WithWorkflows(5, 1).WithN(30_000))
	liveReplay(t, set)()
	run := liveReplay(t, set)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	n := float64(set.Len())
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.1f B/txn, %.4f allocs/txn", bytes, allocs)
	if bytes > liveReplayBytesPerTxn {
		t.Errorf("live replay allocates %.1f B/txn, bound %d", bytes, liveReplayBytesPerTxn)
	}
	if allocs > liveReplayAllocsPerTxn {
		t.Errorf("live replay makes %.4f allocations/txn, bound %v", allocs, liveReplayAllocsPerTxn)
	}
}
