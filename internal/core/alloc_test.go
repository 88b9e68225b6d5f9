package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestInitAllocsConstant: building ASETS* state over an independent set
// takes a fixed number of allocations — the per-run slabs — not a number
// that grows with the transaction count.
func TestInitAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		cfg := workload.Default(0.9, 3)
		cfg.N = n
		set := workload.MustGenerate(cfg)
		return testing.AllocsPerRun(5, func() { New().Init(set) })
	}
	small, large := allocs(1_000), allocs(10_000)
	if small != large {
		t.Fatalf("Init allocations grow with n: %v at n=1k, %v at n=10k", small, large)
	}
}

// TestSteadyStateRunAllocs: a whole single-server Table I run under
// transaction-level ASETS*, set-up included, stays at or below 0.01
// allocations per transaction.
func TestSteadyStateRunAllocs(t *testing.T) {
	const n = 20_000
	cfg := workload.Default(0.95, 11)
	cfg.N = n
	set := workload.MustGenerate(cfg)
	runner := sim.New(sim.Config{})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := runner.Run(set, New()); err != nil {
			t.Fatal(err)
		}
	})
	if perTxn := allocs / n; perTxn > 0.01 {
		t.Fatalf("sim.Run made %v allocations (%.4f per transaction), want <= 0.01 per transaction", allocs, perTxn)
	}
}

// finishBits runs set under s and returns every transaction's finish time
// as raw bits, so two schedules compare byte for byte.
func finishBits(t *testing.T, s *ASETSStar, set *txn.Set) []uint64 {
	t.Helper()
	if _, err := simRunForTest(set, s); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, set.Len())
	for i, tx := range set.Txns {
		out[i] = math.Float64bits(tx.FinishTime)
	}
	return out
}

// TestReInitReproducesSchedule: Init on an instance left mid-run — entities
// enqueued, transactions checked out, T_old candidates recorded — discards
// all of it and replays the schedule of a fresh instance bit for bit, both
// without aging (no T_old candidate set) and with count-based activation
// (a live one).
func TestReInitReproducesSchedule(t *testing.T) {
	cfg := workload.Default(0.95, 21).WithWorkflows(4, 2).WithWeights()
	cfg.N = 400
	set := workload.MustGenerate(cfg)
	for _, tc := range []struct {
		name string
		mk   func() *ASETSStar
	}{
		{"plain", func() *ASETSStar { return New() }},
		{"count-activation", func() *ASETSStar { return New(WithCountActivation(0.1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := finishBits(t, tc.mk(), set)

			reused := tc.mk()
			set.ResetAll()
			reused.Init(set)
			for _, tx := range set.Txns[:set.Len()/2] {
				reused.OnArrival(tx.Arrival, tx)
			}
			for i := 0; i < 5; i++ {
				reused.Next(0) // checked out and never returned
			}
			if got := finishBits(t, reused, set); !slices.Equal(got, want) {
				t.Fatal("re-Init schedule differs from a fresh instance's")
			}
		})
	}
}

// initBytesPerTxn returns the bytes New().Init(set) allocates per
// transaction, read from TotalAlloc after a GC.
func initBytesPerTxn(set *txn.Set) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	New().Init(set)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(set.Len())
}

// TestInitBytes: over an independent set Init builds no entity. It keeps
// the ready tracker, the checked-out flags and one nil entity pointer per
// transaction, about 19 B/txn; entities materialize as their members become
// ready. A chain-workflow set is built up front: the grouping, the
// membership index and every entity, measured at 110 B/txn.
func TestInitBytes(t *testing.T) {
	const n = 100_000
	for _, c := range []struct {
		name string
		spec workload.Spec
		max  float64
	}{
		{"independent", workload.NewSpec(0.95, 5).WithN(n), 32},
		{"workflows(5,1)", workload.NewSpec(0.95, 5).WithN(n).WithWorkflows(5, 1), 115},
	} {
		got := initBytesPerTxn(c.spec.MustBuild())
		t.Logf("%s: %.1f B/txn", c.name, got)
		if got > c.max {
			t.Errorf("%s: Init allocates %.1f B/txn, want <= %v", c.name, got, c.max)
		}
	}
}

// TestWorkflowRunAllocs: a whole workflow-level run, set-up included, stays
// at or below 0.01 allocations per transaction. Each completion that
// readies dependents reuses the ready tracker's buffer.
func TestWorkflowRunAllocs(t *testing.T) {
	const n = 20_000
	set := workload.NewSpec(0.9, 13).WithN(n).WithWeights().WithWorkflows(5, 1).MustBuild()
	runner := sim.New(sim.Config{})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := runner.Run(set, New()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per run, %.4f per transaction", allocs, allocs/n)
	if perTxn := allocs / n; perTxn > 0.01 {
		t.Fatalf("sim.Run made %v allocations (%.4f per transaction), want <= 0.01 per transaction", allocs, perTxn)
	}
}
