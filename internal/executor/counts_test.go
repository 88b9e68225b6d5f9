package executor_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	. "repro/internal/executor"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestStatsAgreeWithSummary: the kernel's running counts, read through
// Stats at the end of a FakeClock replay, agree with metrics.Compute over
// the same set — on a keyed workload under the full fault plan and a
// queue-cap shedder, so commits, validate-fail re-executions, aborts,
// restarts and sheds all feed the counts. Completed, Shed and Misses are
// equal and MaxTardiness is bit-equal. SumTardiness is summed in commit
// order and the ID-order sum in ID order; both sum the same n non-negative
// terms, so they differ by at most (n-1)·2⁻⁵³ of the sum each way, and the
// test allows n·2⁻⁵² relative.
func TestStatsAgreeWithSummary(t *testing.T) {
	var seen Stats
	for _, seed := range []uint64{1, 2, 3} {
		set, err := workload.Generate(matrixSpec(seed).WithContention(matrixKeys))
		if err != nil {
			t.Fatal(err)
		}
		ex := New(core.New(), set, Options{
			TimeScale: time.Millisecond,
			Clock:     NewFakeClock(time.Unix(0, 0)),
			Faults:    FaultPlan(),
			Admit:     admit.QueueCap{Max: 8},
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = ex.Run(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		st := ex.Stats()
		sum, err := metrics.Compute(set, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen.Shed += st.Shed
		seen.Aborts += st.Aborts
		seen.ValidateFails += st.ValidateFails
		seen.Misses += st.Misses

		misses := int(math.Round(sum.MissRatio * float64(sum.N)))
		if st.Completed != sum.N || st.Shed != sum.Shed || st.Misses != misses {
			t.Errorf("seed %d: stats completed/shed/misses %d/%d/%d, summary %d/%d/%d",
				seed, st.Completed, st.Shed, st.Misses, sum.N, sum.Shed, misses)
		}
		if math.Float64bits(st.MaxTardiness) != math.Float64bits(sum.MaxTardiness) {
			t.Errorf("seed %d: stats max tardiness %v, summary %v", seed, st.MaxTardiness, sum.MaxTardiness)
		}
		idSum := 0.0
		for _, tx := range set.Txns {
			if !tx.Shed {
				idSum += tx.Tardiness()
			}
		}
		if idSum/float64(sum.N) != sum.AvgTardiness {
			t.Fatalf("seed %d: summary average %v is not the ID-order sum %v over %d", seed, sum.AvgTardiness, idSum, sum.N)
		}
		if bound := float64(sum.N) * 0x1p-52 * idSum; math.Abs(st.SumTardiness-idSum) > bound {
			t.Errorf("seed %d: stats tardiness sum %v, ID-order sum %v, beyond %v", seed, st.SumTardiness, idSum, bound)
		}
	}
	if seen.Shed == 0 || seen.Aborts == 0 || seen.ValidateFails == 0 || seen.Misses == 0 {
		t.Fatalf("the replays exercised too little: %+v", seen)
	}
}
