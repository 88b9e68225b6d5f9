package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestRunAllocs pins the per-run allocations of a bare 10k-transaction
// sim.Run: the kernel's set-up and loop must not add any.
func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count over 10k-transaction runs")
	}
	set := workload.MustGenerate(workload.Default(0.95, 1).WithN(10000))
	for _, c := range []struct {
		name string
		new  func() sched.Scheduler
		max  float64
	}{
		{"FCFS", sched.NewFCFS, 22},
		{"ASETS*", func() sched.Scheduler { return core.New() }, 41},
	} {
		sim := New(Config{})
		got := testing.AllocsPerRun(5, func() { sim.MustRun(set, c.new()) })
		if got > c.max {
			t.Errorf("%s: %v allocations per run, want <= %v", c.name, got, c.max)
		}
		t.Logf("%s: %v allocations per run", c.name, got)
	}
}

// TestRunBytes pins the bytes a bare Table I sim.Run allocates per
// transaction: set-up reads the set's recorded facts instead of scanning
// it, delivers arrivals from the set itself when it is in arrival order,
// and keeps only the missed deadlines' tardiness for the percentiles.
// Measured 19.7 B/txn at n = 20k and 17.4 at 80k; a run that copies the
// arrival order and every tardiness value reads 32.4 and 30.1.
func TestRunBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocated bytes over 80k-transaction runs")
	}
	const budget = 25.0
	for _, n := range []int{20_000, 80_000} {
		set := workload.MustGenerate(workload.Default(0.95, 1).WithN(n))
		sim := New(Config{})
		run := func() { sim.MustRun(set, core.New()) }
		run() // warm-up
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("n=%d: %.1f bytes per transaction", n, got)
		if got > budget {
			t.Errorf("n=%d: %.1f bytes per transaction, want <= %v", n, got, budget)
		}
	}
}

// Observability overhead budgets, both measured on one fixture: a
// 100k-transaction weighted-workflow replay under ASETS*, uninstrumented
// (baseline) and with the server's full pipeline — event ring, span
// builder with windowed sketches and a Keep bound, registry (enabled).
// Allocation counts on the single-goroutine decision loop are
// deterministic, so the allocation budget is tight; wall-clock on shared
// hardware is noisy, so the overhead budget (overhead_test.go) only
// catches order-of-magnitude regressions. Per-layer costs live in the
// perfbench ledger (obs.ring.ns_per_event, obs.span.ns_per_event,
// sched.instrument_self_ns_per_txn). To re-baseline after an intentional
// change, run `go test -v -run ObsOverhead ./internal/sim`, read the logged
// numbers, and update the constants in the same commit
// (docs/OBSERVABILITY.md, "Overhead budgets").
const (
	// obsBudgetN is the replay size: large enough that per-run warm-up
	// amortizes away and the steady-state rate is what gets gated.
	obsBudgetN = 100_000
	// obsBudgetAllocsPerTxn bounds the observability layer's own heap
	// allocations per transaction: enabled-run allocs/txn minus
	// baseline-run allocs/txn, so scheduler-internal allocations (audited
	// separately by asetslint's hotpath-alloc budget) neither mask nor
	// inflate the instrumentation cost. Measured 0.108 (amortized cell
	// registration and segment warm-up; the span pool serves every span).
	obsBudgetAllocsPerTxn = 1.0
	// obsBudgetOverheadPct bounds the enabled pipeline's ns/txn overhead
	// over the baseline, as the median of obsTimingPairs back-to-back
	// pairs on one P. Measured +57% to +84% over ten runs on a shared
	// 2-CPU VM, and +39% to +83% over four with two CPU-bound processes
	// competing.
	obsBudgetOverheadPct = 150.0
)

// obsBudgetFixture returns the budget workload and its two configurations;
// each call of a configuration builds a fresh pipeline.
func obsBudgetFixture(t *testing.T) (set *txn.Set, baseline, enabled func() Config) {
	t.Helper()
	cfg := workload.Default(0.9, 1).WithWorkflows(4, 1).WithWeights()
	cfg.N = obsBudgetN
	set = workload.MustGenerate(cfg)
	// The tumbling window scales with the replay so the windowed export
	// keeps a bounded cell count (~128 windows); a fixed width would turn
	// windows into near-per-completion cells and measure registration, not
	// observation.
	var totalWork float64
	for _, tx := range set.Txns {
		totalWork += tx.Length
	}
	baseline = func() Config { return Config{} }
	enabled = func() Config {
		reg := obs.NewRegistry()
		return Config{
			Sink: obs.Tee(
				obs.NewRing(1024),
				obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: totalWork / 128, Keep: 1024}),
			),
			Metrics: reg,
		}
	}
	return set, baseline, enabled
}

// TestObsOverheadAllocs gates the enabled pipeline's allocations per
// transaction over the baseline at obsBudgetAllocsPerTxn.
func TestObsOverheadAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count over 100k-transaction runs")
	}
	set, baseline, enabled := obsBudgetFixture(t)
	// One run per configuration, after a GC so survivors of earlier work
	// are off the books; Mallocs is monotonic, so a GC mid-run cannot
	// hide allocations.
	allocs := func(mk func() Config) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(mk()).MustRun(set, core.New())
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / obsBudgetN
	}
	base, en := allocs(baseline), allocs(enabled)
	t.Logf("allocs/txn: baseline %.4f, enabled %.4f, observability %.4f (budget %.2f)", base, en, en-base, obsBudgetAllocsPerTxn)
	if en-base > obsBudgetAllocsPerTxn {
		t.Errorf("observability allocates %.4f/txn over the baseline, budget %.2f", en-base, obsBudgetAllocsPerTxn)
	}
}
