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
// enqueued, transactions completed and checked out, T_old candidates
// recorded, finished singleton entities on the free list — discards all of
// it and replays the schedule of a fresh instance bit for bit: on a
// workflow set without aging (no T_old candidate set) and with count-based
// activation (a live one), on an independent set and under the Ready
// baseline.
func TestReInitReproducesSchedule(t *testing.T) {
	cfg := workload.Default(0.95, 21).WithWorkflows(4, 2).WithWeights()
	cfg.N = 400
	workflows := workload.MustGenerate(cfg)
	independent := workload.MustGenerate(workload.Default(0.95, 21).WithN(400).WithWeights())
	for _, tc := range []struct {
		name string
		set  *txn.Set
		mk   func() *ASETSStar
	}{
		{"plain", workflows, func() *ASETSStar { return New() }},
		{"count-activation", workflows, func() *ASETSStar { return New(WithCountActivation(0.1)) }},
		{"independent", independent, func() *ASETSStar { return New() }},
		{"ready", workflows, NewReady},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := tc.set
			want := finishBits(t, tc.mk(), set)

			reused := tc.mk()
			set.ResetAll()
			reused.Init(set)
			now := 0.0
			for _, tx := range set.Txns[:set.Len()/2] {
				now = max(now, tx.Arrival)
				reused.OnArrival(now, tx)
			}
			// Complete every other transaction Next hands out; the rest stay
			// checked out. A completion that readies a dependent hands its
			// recycled entity straight on, so go on until one stays on the
			// free list.
			for done := 0; done < 4 || reused.groups.Singleton() && reused.free == nil; done++ {
				reused.Next(now)
				reused.OnCompletion(now, reused.Next(now))
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
// transaction, about 15 B/txn; entities materialize as their members become
// ready. A chain-workflow set is built up front: the grouping, the
// membership index and every entity, measured at 110 B/txn.
func TestInitBytes(t *testing.T) {
	const n = 100_000
	for _, c := range []struct {
		name string
		spec workload.Config
		max  float64
	}{
		{"independent", workload.Default(0.95, 5).WithN(n), 32},
		{"workflows(5,1)", workload.Default(0.95, 5).WithN(n).WithWorkflows(5, 1), 115},
	} {
		got := initBytesPerTxn(workload.MustGenerate(c.spec))
		t.Logf("%s: %.1f B/txn", c.name, got)
		if got > c.max {
			t.Errorf("%s: Init allocates %.1f B/txn, want <= %v", c.name, got, c.max)
		}
	}
}

// runBytesPerTxn returns the bytes a whole sim.Run of s over set allocates
// per transaction, read from TotalAlloc after a GC.
func runBytesPerTxn(t *testing.T, set *txn.Set, s *ASETSStar) float64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.New(sim.Config{}).Run(set, s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(set.Len())
}

// TestRunBytes: a whole transaction-level run keeps an entity only while
// its transaction waits or runs, and reuses it once the transaction
// finishes, so its memory follows the backlog, not the set size. What
// stays per transaction is the run's index words: the ready tracker, the
// checked-out flags, one entity pointer each, the arrival order and the
// metrics. Measured at about 31 B/txn; keeping every entity until the run
// ends costs about 195.
func TestRunBytes(t *testing.T) {
	set := workload.MustGenerate(workload.Default(0.95, 1).WithN(200_000))
	got := runBytesPerTxn(t, set, New())
	t.Logf("%.1f B/txn", got)
	if got > 48 {
		t.Errorf("sim.Run allocates %.1f B/txn, want <= 48", got)
	}
}

// TestWorkflowRunAllocs: a whole workflow-level run, set-up included, stays
// at or below 0.01 allocations per transaction. Each completion that
// readies dependents reuses the ready tracker's buffer.
func TestWorkflowRunAllocs(t *testing.T) {
	const n = 20_000
	set := workload.MustGenerate(workload.Default(0.9, 13).WithN(n).WithWeights().WithWorkflows(5, 1))
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
