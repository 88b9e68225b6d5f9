package repro_test

import (
	"testing"

	"repro"
)

// TestFacadeQuickstart runs the README quick-start end to end through the
// public API only.
func TestFacadeQuickstart(t *testing.T) {
	set := repro.MustGenerate(repro.DefaultWorkload(0.8, 42))
	summary := repro.MustRun(set, repro.NewASETSStar(), repro.SimConfig{})
	if summary.N != 1000 {
		t.Fatalf("n = %d", summary.N)
	}
	if summary.AvgTardiness < 0 {
		t.Fatalf("tardiness = %v", summary.AvgTardiness)
	}
}

// TestFacadePoliciesRunnable constructs every exported policy and runs it on
// a small weighted workflow workload with trace validation.
func TestFacadePoliciesRunnable(t *testing.T) {
	cfg := repro.DefaultWorkload(0.7, 7).WithWorkflows(4, 2).WithWeights()
	cfg.N = 200
	policies := []repro.Scheduler{
		repro.NewFCFS(),
		repro.NewEDF(),
		repro.NewSRPT(),
		repro.NewLS(),
		repro.NewHDF(),
		repro.NewHVF(),
		repro.NewMIX(),
		repro.NewASETSStar(),
		repro.NewReady(),
		repro.NewASETSStar(repro.WithTimeActivation(0.01)),
		repro.NewASETSStar(repro.WithCountActivation(0.05)),
		repro.NewASETSStar(repro.WithSymmetricRule()),
	}
	for _, p := range policies {
		set := repro.MustGenerate(cfg)
		rec := &repro.TraceRecorder{}
		sum, err := repro.Run(set, p, repro.SimConfig{Recorder: rec})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := rec.Validate(set); err != nil {
			t.Fatalf("%s: invalid schedule: %v", p.Name(), err)
		}
		if sum.BusyTime <= 0 {
			t.Fatalf("%s: no work performed", p.Name())
		}
	}
}

// TestFacadeWorkflows checks the workflow derivation surface.
func TestFacadeWorkflows(t *testing.T) {
	a := &repro.Transaction{ID: 0, Arrival: 0, Deadline: 10, Length: 2, Weight: 1}
	b := &repro.Transaction{ID: 1, Arrival: 0, Deadline: 5, Length: 1, Weight: 2, Deps: []repro.ID{0}}
	set, err := repro.NewSet([]*repro.Transaction{a, b})
	if err != nil {
		t.Fatal(err)
	}
	set.ResetAll() // populate Remaining from Length
	wfs := repro.BuildWorkflows(set)
	if len(wfs) != 1 || len(wfs[0].Members) != 2 {
		t.Fatalf("workflows = %v", wfs)
	}
	rep := wfs[0].Representative()
	if rep.Deadline != 5 || rep.Remaining != 1 || rep.Weight != 2 {
		t.Fatalf("rep = %+v", rep)
	}
}

// TestFacadeExperimentRegistry runs one registered experiment through the
// facade.
func TestFacadeExperimentRegistry(t *testing.T) {
	ids := repro.ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("registry too small: %v", ids)
	}
	run := repro.Experiments()["fig8"]
	res, err := run(repro.ExperimentOptions{N: 100, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure.ID != "fig8" {
		t.Fatalf("figure = %+v", res.Figure)
	}
}

// TestFacadeClosedLoop exercises the session API end to end through the
// facade.
func TestFacadeClosedLoop(t *testing.T) {
	cfg := repro.DefaultSessions(6, 0.8, 3)
	set, sessions, err := repro.GenerateSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunClosedLoop(set, sessions, repro.NewASETSStar(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N != set.Len() {
		t.Fatalf("completed %d of %d", res.Summary.N, set.Len())
	}
	if res.AbandonRate < 0 || res.AbandonRate > 1 {
		t.Fatalf("abandon rate %v", res.AbandonRate)
	}
}

// TestFacadeStructuralBounds: earliest finish times lower-bound simulated
// finishes under every policy.
func TestFacadeStructuralBounds(t *testing.T) {
	cfg := repro.DefaultWorkload(0.9, 17).WithWorkflows(5, 1)
	cfg.N = 300
	set := repro.MustGenerate(cfg)
	eft, err := repro.EarliestFinishTimes(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []repro.Scheduler{repro.NewEDF(), repro.NewSRPT(), repro.NewASETSStar()} {
		repro.MustRun(set, p, repro.SimConfig{})
		for _, tx := range set.Txns {
			if tx.FinishTime < eft[tx.ID]-1e-6 {
				t.Fatalf("%s: T%d finished at %v below structural bound %v",
					p.Name(), tx.ID, tx.FinishTime, eft[tx.ID])
			}
		}
	}
	cp, err := repro.CriticalPath(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp {
		if cp[i] < set.ByID(repro.ID(i)).Length {
			t.Fatalf("critical path %v below own length", cp[i])
		}
	}
}

// TestFacadeMultiServer runs a replicated-backend simulation through the
// public surface.
func TestFacadeMultiServer(t *testing.T) {
	cfg := repro.DefaultWorkload(1.8, 23)
	cfg.N = 300
	set := repro.MustGenerate(cfg)
	rec := &repro.TraceRecorder{}
	sum, err := repro.Run(set, repro.NewASETSStar(), repro.SimConfig{Servers: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.ValidateN(set, 2); err != nil {
		t.Fatal(err)
	}
	if sum.BusyTime <= sum.Makespan {
		t.Fatal("two busy servers should accumulate busy time beyond the makespan")
	}
}

// TestDeterministicReplay: the same config and seed produce bit-identical
// summaries across runs — the property every experiment depends on.
func TestDeterministicReplay(t *testing.T) {
	cfg := repro.DefaultWorkload(0.9, 1234).WithWorkflows(5, 1).WithWeights()
	cfg.N = 400
	run := func() *repro.Summary {
		return repro.MustRun(repro.MustGenerate(cfg), repro.NewASETSStar(), repro.SimConfig{})
	}
	a, b := run(), run()
	if a.AvgWeightedTardiness != b.AvgWeightedTardiness || a.Makespan != b.Makespan {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
