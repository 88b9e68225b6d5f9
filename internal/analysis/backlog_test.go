package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

func TestBacklogSeriesSmall(t *testing.T) {
	// T0 runs 0-4 (deadline 10, never late); T1 arrives 1, waits until 4,
	// runs 4-6 with deadline 3 => late from early on.
	set, rec := runTraced(t, sched.NewFCFS(),
		mk(0, 0, 10, 4),
		mk(1, 1, 3, 2),
	)
	series := BacklogSeries(set, rec, 13) // samples every 0.5 units
	if len(series) != 13 {
		t.Fatalf("series length %d", len(series))
	}
	// At t=0 only T0 is present.
	if series[0].Backlog != 1 || series[0].Late != 0 {
		t.Fatalf("t=0 sample: %+v", series[0])
	}
	// At t=2 both present; T1 is late (2 + 2 > 3).
	at2 := series[4] // 6.0 * 4/12 = 2.0
	if at2.Backlog != 2 || at2.Late != 1 {
		t.Fatalf("t=2 sample: %+v", at2)
	}
	// Final sample: everything finished.
	last := series[len(series)-1]
	if last.Backlog != 0 || last.Late != 0 {
		t.Fatalf("final sample: %+v", last)
	}
}

func TestBacklogRemainingAccountsService(t *testing.T) {
	// A transaction that has received service is late only by its true
	// remaining work: T0 len 4, d=5; at t=4 (about to finish) it is not
	// late (4 + 0.?? <= 5).
	set, rec := runTraced(t, sched.NewFCFS(), mk(0, 0, 5, 4))
	series := BacklogSeries(set, rec, 9) // every 0.5 of makespan 4
	for _, p := range series {
		if p.Late != 0 {
			t.Fatalf("on-time transaction sampled late: %+v", p)
		}
	}
}

func TestBacklogDegenerate(t *testing.T) {
	set, rec := runTraced(t, sched.NewFCFS(), mk(0, 0, 5, 4))
	if s := BacklogSeries(set, rec, 1); s != nil {
		t.Fatal("samples<2 should return nil")
	}
	empty, err := txn.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := BacklogSeries(empty, &trace.Recorder{}, 5); s != nil {
		t.Fatal("empty set should return nil")
	}
}

func TestPeakAndLateShare(t *testing.T) {
	series := []BacklogPoint{
		{Time: 0, Backlog: 2, Late: 0},
		{Time: 1, Backlog: 5, Late: 2},
		{Time: 2, Backlog: 3, Late: 3},
		{Time: 3, Backlog: 0, Late: 0},
	}
	want := (0.0 + 2.0/5 + 1.0) / 3
	if got := MeanLateShare(series); got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("late share = %v, want %v", got, want)
	}
	if MeanLateShare(nil) != 0 {
		t.Fatal("empty late share")
	}
}

// TestDominoEffectVisible reproduces the paper's Section III-A.1 argument
// quantitatively: under overload, EDF keeps prioritizing transactions whose
// deadlines are already lost, so its backlog carries a higher late share
// than ASETS*, which migrates them to the SRPT list.
func TestDominoEffectVisible(t *testing.T) {
	cfg := workload.Default(1.0, 99)
	cfg.N = 500
	run := func(s sched.Scheduler) float64 {
		set := workload.MustGenerate(cfg)
		rec := &trace.Recorder{}
		if _, err := sim.New(sim.Config{Recorder: rec}).Run(set, s); err != nil {
			t.Fatal(err)
		}
		return MeanLateShare(BacklogSeries(set, rec, 200))
	}
	edf := run(sched.NewEDF())
	asets := run(core.New())
	if asets >= edf {
		t.Fatalf("late share: ASETS* %v should be below EDF %v under overload", asets, edf)
	}
}
