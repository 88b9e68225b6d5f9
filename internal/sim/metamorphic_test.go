package sim_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestMetamorphicTimeScaling checks the paper's model is unit-free: doubling
// every arrival, deadline and length through the kernel doubles every finish
// time and every tardiness aggregate exactly. Scaling by 2 is exact in
// floating point, and each of these policies orders by keys that either keep
// their order under the scaling or scale with it, so the schedule itself must
// not move. MIX is left out: its key mixes a deadline with a weight, and
// only the deadline scales.
func TestMetamorphicTimeScaling(t *testing.T) {
	policies := []func() sched.Scheduler{
		sched.NewFCFS, sched.NewEDF, sched.NewSRPT, sched.NewLS, sched.NewHDF, sched.NewHVF,
		func() sched.Scheduler { return core.New() },
		func() sched.Scheduler { return core.NewReady() },
	}
	for _, shape := range []struct {
		name  string
		apply func(workload.Config) workload.Config
	}{
		{"independent", func(c workload.Config) workload.Config { return c }},
		{"workflows", func(c workload.Config) workload.Config { return c.WithWorkflows(5, 1).WithWeights() }},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			cfg := shape.apply(workload.Default(0.95, seed))
			cfg.N = 500
			base := workload.MustGenerate(cfg)
			for _, servers := range []int{1, 2} {
				for _, mk := range policies {
					name := fmt.Sprintf("%s/seed%d/S%d/%s", shape.name, seed, servers, mk().Name())
					t.Run(name, func(t *testing.T) {
						checkTimeScaling(t, base, mk, servers)
					})
				}
			}
		}
	}
}

func checkTimeScaling(t *testing.T, base *txn.Set, mk func() sched.Scheduler, servers int) {
	t.Helper()
	e := sim.New(sim.Config{Servers: servers})
	plain := base.Clone()
	ps, err := e.Run(plain, mk())
	if err != nil {
		t.Fatal(err)
	}
	scaled := base.Clone()
	for _, tx := range scaled.Txns {
		tx.Arrival *= 2
		tx.Deadline *= 2
		tx.Length *= 2
	}
	scaled.ResetAll()
	ss, err := e.Run(scaled, mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, tx := range plain.Txns {
		if got, want := scaled.Txns[i].FinishTime, 2*tx.FinishTime; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("T%d finishes at %v scaled, want exactly 2 × %v", tx.ID, got, tx.FinishTime)
		}
	}
	for _, f := range []struct {
		name string
		get  func(*metrics.Summary) float64
	}{
		{"AvgTardiness", func(s *metrics.Summary) float64 { return s.AvgTardiness }},
		{"AvgWeightedTardiness", func(s *metrics.Summary) float64 { return s.AvgWeightedTardiness }},
		{"MaxTardiness", func(s *metrics.Summary) float64 { return s.MaxTardiness }},
		{"MaxWeightedTardiness", func(s *metrics.Summary) float64 { return s.MaxWeightedTardiness }},
		{"TardinessP50", func(s *metrics.Summary) float64 { return s.TardinessP50 }},
		{"TardinessP95", func(s *metrics.Summary) float64 { return s.TardinessP95 }},
		{"TardinessP99", func(s *metrics.Summary) float64 { return s.TardinessP99 }},
	} {
		if got, want := f.get(ss), 2*f.get(ps); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v scaled, want exactly 2 × %v", f.name, got, f.get(ps))
		}
	}
}
