//go:build !race

package sim

import (
	"cmp"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// obsTimingPairs is the number of back-to-back baseline/enabled pairs the
// timing budget takes the median overhead of.
const obsTimingPairs = 7

// TestObsOverheadTiming gates the enabled pipeline's ns/txn overhead over
// the baseline at obsBudgetOverheadPct (budget rationale in alloc_test.go).
// The race detector distorts the ratio, hence the build tag.
func TestObsOverheadTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing over 100k-transaction runs")
	}
	set, baseline, enabled := obsBudgetFixture(t)
	// The simulation is one goroutine. On one P the collector's work is
	// charged to the run that caused it whether or not the machine has a
	// CPU to spare, and each run starts from a collected heap, so neither
	// spare cores nor the previous run's garbage move the ratio.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(mk func() Config) time.Duration {
		runtime.GC()
		start := time.Now()
		New(mk()).MustRun(set, core.New())
		return time.Since(start)
	}
	// Warm up both paths, then time obsTimingPairs pairs of back-to-back
	// runs, alternating which configuration goes first. A pair's two runs
	// see the same machine, so load from other processes that slows the
	// machine for seconds at a time cancels in the pair's ratio, and the
	// median pair ignores pairs that a shorter burst hit on one side only.
	run(baseline)
	run(enabled)
	type pair struct{ base, en time.Duration }
	pairs := make([]pair, obsTimingPairs)
	for i := range pairs {
		if i%2 == 0 {
			pairs[i].base = run(baseline)
			pairs[i].en = run(enabled)
		} else {
			pairs[i].en = run(enabled)
			pairs[i].base = run(baseline)
		}
	}
	overhead := func(p pair) float64 { return 100 * float64(p.en-p.base) / float64(p.base) }
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(overhead(a), overhead(b)) })
	med := pairs[len(pairs)/2]
	pct := overhead(med)
	t.Logf("median pair ns/txn: baseline %.0f, enabled %.0f, overhead %+.1f%% (pairs %+.1f%% to %+.1f%%; budget %.0f%%)",
		float64(med.base)/obsBudgetN, float64(med.en)/obsBudgetN, pct,
		overhead(pairs[0]), overhead(pairs[len(pairs)-1]), obsBudgetOverheadPct)
	if pct > obsBudgetOverheadPct {
		t.Errorf("observability overhead %.1f%% over the baseline, budget %.0f%%", pct, obsBudgetOverheadPct)
	}
}
