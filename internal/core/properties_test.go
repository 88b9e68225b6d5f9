package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// pairTardiness runs two transactions available at t=0 in the given order
// (no preemption possible — nothing else arrives) and returns the total
// tardiness.
func pairTardiness(first, second *txn.Transaction) float64 {
	f1 := first.Length
	t1 := 0.0
	if f1 > first.Deadline {
		t1 = f1 - first.Deadline
	}
	f2 := f1 + second.Length
	t2 := 0.0
	if f2 > second.Deadline {
		t2 = f2 - second.Deadline
	}
	return t1 + t2
}

// TestTwoTransactionOptimality encodes the paper's own justification of the
// decision rule ("if the system has only these two transactions, whichever
// order will lead to a minimal tardiness is the order that ASETS* follows",
// Section III-A.2): for any two transactions available at time zero with no
// later arrivals, ASETS* achieves the minimum total tardiness over both
// execution orders.
func TestTwoTransactionOptimality(t *testing.T) {
	src := rng.New(424242)
	for trial := 0; trial < 5000; trial++ {
		a := &txn.Transaction{ID: 0, Arrival: 0, Weight: 1,
			Length:   float64(src.IntRange(1, 50)),
			Deadline: src.Uniform(0.01, 200),
		}
		b := &txn.Transaction{ID: 1, Arrival: 0, Weight: 1,
			Length:   float64(src.IntRange(1, 50)),
			Deadline: src.Uniform(0.01, 200),
		}
		set, err := txn.NewSet([]*txn.Transaction{a, b})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sim.New(sim.Config{}).Run(set, New())
		if err != nil {
			t.Fatal(err)
		}
		got := sum.AvgTardiness * 2

		aCopy, bCopy := *a, *b
		best := pairTardiness(&aCopy, &bCopy)
		if alt := pairTardiness(&bCopy, &aCopy); alt < best {
			best = alt
		}
		if got > best+1e-9 {
			t.Fatalf("trial %d: ASETS* tardiness %v exceeds optimal %v for a=%v b=%v",
				trial, got, best, a, b)
		}
	}
}

// TestTwoTransactionWeightedOptimality is the weighted analogue against the
// general rule: total weighted tardiness at most the better of both orders.
// The Fig. 7 rule is exact for two transactions when one sits in each list;
// when both share a list the EDF/HDF list order applies, which is optimal
// for the both-feasible and both-late cases respectively — except that HDF's
// density order is a 2-approximation heuristic for two late jobs with
// general weights, so a small slack factor is allowed there.
func TestTwoTransactionWeightedOptimality(t *testing.T) {
	src := rng.New(99999)
	weightedPair := func(first, second *txn.Transaction) float64 {
		f1 := first.Length
		t1 := 0.0
		if f1 > first.Deadline {
			t1 = (f1 - first.Deadline) * first.Weight
		}
		f2 := f1 + second.Length
		t2 := 0.0
		if f2 > second.Deadline {
			t2 = (f2 - second.Deadline) * second.Weight
		}
		return t1 + t2
	}
	worse := 0
	for trial := 0; trial < 5000; trial++ {
		a := &txn.Transaction{ID: 0, Arrival: 0,
			Weight:   float64(src.IntRange(1, 10)),
			Length:   float64(src.IntRange(1, 50)),
			Deadline: src.Uniform(0.01, 200),
		}
		b := &txn.Transaction{ID: 1, Arrival: 0,
			Weight:   float64(src.IntRange(1, 10)),
			Length:   float64(src.IntRange(1, 50)),
			Deadline: src.Uniform(0.01, 200),
		}
		set, err := txn.NewSet([]*txn.Transaction{a, b})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := sim.New(sim.Config{}).Run(set, New())
		if err != nil {
			t.Fatal(err)
		}
		got := sum.AvgWeightedTardiness * 2

		aCopy, bCopy := *a, *b
		best := weightedPair(&aCopy, &bCopy)
		if alt := weightedPair(&bCopy, &aCopy); alt < best {
			best = alt
		}
		if got > best+1e-9 {
			worse++
		}
	}
	// The heuristic is not exactly optimal in every weighted configuration;
	// the paper claims adaptivity, not per-instance optimality. Requiring
	// sub-optimality in under 6% of random instances pins the quality.
	if worse > 300 {
		t.Fatalf("ASETS* weighted choice suboptimal in %d/5000 two-transaction instances", worse)
	}
}

// TestRandomWorkloadsAllPoliciesValid is the randomized differential smoke:
// many small random workloads, every policy, full trace validation, and the
// work-conservation cross-check that all policies complete all work in the
// same busy periods (identical makespan and busy time).
func TestRandomWorkloadsAllPoliciesValid(t *testing.T) {
	mkPolicies := func() []sched.Scheduler {
		return []sched.Scheduler{
			sched.NewFCFS(), sched.NewEDF(), sched.NewSRPT(), sched.NewLS(),
			sched.NewHDF(), sched.NewHVF(), sched.NewMIX(),
			New(), NewReady(),
			New(WithRule(RuleSymmetric), WithName("sym")),
			New(WithHeadExcludedRep(), WithName("tail")),
			New(WithTimeActivation(0.01)),
			New(WithCountActivation(0.05)),
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		cfg := workload.Default(0.2+0.07*float64(seed), seed)
		cfg.N = 60
		if seed%2 == 0 {
			cfg = cfg.WithWorkflows(4, int(seed%3)+1).WithWeights()
		}
		if seed%3 == 0 {
			cfg.Arrivals = workload.ArrivalsBatch
		}
		if seed%4 == 0 {
			cfg.Order = workload.OrderRandom
		}
		var refMakespan, refBusy float64
		for i, s := range mkPolicies() {
			set := workload.MustGenerate(cfg)
			rec := &trace.Recorder{}
			sum, err := sim.New(sim.Config{Recorder: rec}).Run(set, s)
			if err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, s.Name(), err)
			}
			if err := rec.Validate(set); err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, s.Name(), err)
			}
			if i == 0 {
				refMakespan, refBusy = sum.Makespan, sum.BusyTime
				continue
			}
			if diff := sum.Makespan - refMakespan; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("seed %d policy %s: makespan %v differs from FCFS's %v (work conservation violated)",
					seed, s.Name(), sum.Makespan, refMakespan)
			}
			if diff := sum.BusyTime - refBusy; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("seed %d policy %s: busy time %v differs from FCFS's %v",
					seed, s.Name(), sum.BusyTime, refBusy)
			}
		}
	}
}

// TestEDFFeasibilityOptimality encodes the classic theorem the paper leans
// on ("EDF guarantees that all jobs will meet their deadlines if the system
// is not over-utilized"): preemptive EDF on one server is optimal for
// feasibility, so if ANY policy meets every deadline on an independent
// workload, EDF must too.
func TestEDFFeasibilityOptimality(t *testing.T) {
	policies := []func() sched.Scheduler{
		sched.NewFCFS, sched.NewSRPT, sched.NewLS, sched.NewHDF,
		func() sched.Scheduler { return New() },
	}
	checked := 0
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := workload.Default(0.2+0.02*float64(seed%30), seed)
		cfg.N = 80
		someFeasible := false
		for _, mk := range policies {
			set := workload.MustGenerate(cfg)
			sum, err := sim.New(sim.Config{}).Run(set, mk())
			if err != nil {
				t.Fatal(err)
			}
			if sum.MissRatio == 0 {
				someFeasible = true
				break
			}
		}
		if !someFeasible {
			continue
		}
		checked++
		set := workload.MustGenerate(cfg)
		sum, err := sim.New(sim.Config{}).Run(set, sched.NewEDF())
		if err != nil {
			t.Fatal(err)
		}
		if sum.MissRatio != 0 {
			t.Fatalf("seed %d: another policy met every deadline but EDF missed %.1f%%",
				seed, 100*sum.MissRatio)
		}
	}
	if checked == 0 {
		t.Skip("no feasible instance generated at this scale")
	}
}

// TestQuickSingletonEquivalence: on independent workloads, singleton and
// workflow grouping must agree for arbitrary parameters (quick-checked over
// the generator's seed/utilization space).
func TestQuickSingletonEquivalence(t *testing.T) {
	f := func(seed uint64, utilQ uint8) bool {
		cfg := workload.Default(float64(utilQ%10+1)/10, seed)
		cfg.N = 40
		a := workload.MustGenerate(cfg)
		b := workload.MustGenerate(cfg)
		sa, err := sim.New(sim.Config{}).Run(a, New())
		if err != nil {
			return false
		}
		sb, err := sim.New(sim.Config{}).Run(b, NewReady())
		if err != nil {
			return false
		}
		return sa.AvgTardiness == sb.AvgTardiness && sa.Makespan == sb.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
