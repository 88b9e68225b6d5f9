package contention_test

import (
	"runtime"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestAssignAllocsConstant: key assignment draws every read and write set
// into one slab with one offset table and re-seeds one by-value generator,
// so its allocation count is the same at any workload size.
func TestAssignAllocsConstant(t *testing.T) {
	// The process's first collection starts the GC's mark-worker
	// goroutines, whose allocations would be counted against whichever
	// measurement it falls in; collect once before measuring.
	runtime.GC()
	ks := contention.Keyspace{Keys: 4096, Alpha: 0.9, Reads: 4, Writes: 2, ReadOnlyProb: 0.2}
	allocs := func(n int) float64 {
		set := workload.MustGenerate(workload.Default(0.9, 3).WithN(n))
		return testing.AllocsPerRun(5, func() {
			if err := contention.Assign(set, ks, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if small != large {
		t.Fatalf("Assign allocations grow with n: %v at n=1k, %v at n=10k", small, large)
	}
}

// TestBuildContendedAllocs: building a contended workload — generation and
// key assignment — stays at or below 0.01 allocations per transaction.
func TestBuildContendedAllocs(t *testing.T) {
	const n = 10_000
	spec := workload.Default(0.85*4, 7).WithN(n).
		WithContention(contention.Keyspace{Keys: 4096, Alpha: 0.9, Reads: 4, Writes: 2})
	allocs := testing.AllocsPerRun(3, func() { workload.MustGenerate(spec) })
	if perTxn := allocs / n; perTxn > 0.01 {
		t.Fatalf("Build made %v allocations (%.4f per transaction), want <= 0.01 per transaction", allocs, perTxn)
	}
}

// TestBuildContendedBytes pins the bytes one contended build allocates per
// transaction, in the shape of the contention sweep's jobs (2,500
// transactions over 4 servers): the set is validated once, key assignment
// checks only the sets it draws, the key sets sit in one slab on the set
// rather than in every record, and the keyspace's Zipf table is shared
// across builds. Measured 162 B/txn; key-set fields on every record read
// 236, and validating twice and rebuilding the table on top of that 332.
func TestBuildContendedBytes(t *testing.T) {
	const n, budget = 2_500, 190.0
	spec := workload.Default(0.85*4, 1).WithN(n).
		WithContention(contention.Keyspace{Keys: 4096, Alpha: 0.9, Reads: 4, Writes: 2})
	workload.MustGenerate(spec) // warm-up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	workload.MustGenerate(spec)
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f bytes per transaction", got)
	if got > budget {
		t.Errorf("Build allocated %.1f bytes per transaction, want <= %v", got, budget)
	}
}

// TestSteadyStateContendedRunAllocs: a whole 4-server CA-ASETS* run over a
// contended set — validation rewinds and conflict probes included, set-up
// included — stays at or below 0.01 allocations per transaction.
func TestSteadyStateContendedRunAllocs(t *testing.T) {
	const n = 20_000
	set := workload.MustGenerate(workload.Default(0.85*4, 11).WithN(n).
		WithContention(contention.Keyspace{Keys: 4096, Alpha: 0.9, Reads: 4, Writes: 2}))
	runner := sim.New(sim.Config{Servers: 4})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := runner.Run(set, contention.NewDeferring(core.New(), 0)); err != nil {
			t.Fatal(err)
		}
	})
	if perTxn := allocs / n; perTxn > 0.01 {
		t.Fatalf("sim.Run made %v allocations (%.4f per transaction), want <= 0.01 per transaction", allocs, perTxn)
	}
}
