// Overload/robustness benchmark: sweeps utilization past saturation with and
// without admission control under a fixed fault plan, and records whether
// shedding bought the admitted transactions their deadlines back. The result
// is a small machine-readable JSON document (committed as BENCH_fault.json).
package main

import (
	"context"
	"fmt"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// faultBenchPlan is the fixed fault schedule of the sweep: keyed aborts with
// backoff plus one mid-run stall. Bursts are omitted so the utilization on
// the x-axis stays the configured one.
func faultBenchPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 0xB0B, AbortProb: 0.1, MaxRestarts: 2,
		BackoffBase: 0.5, BackoffCap: 4,
		Stalls: []fault.Window{{Start: 100, Duration: 10}},
	}
}

// faultBenchPoint is one (utilization, controller) cell, averaged over seeds.
type faultBenchPoint struct {
	Util                 float64 `json:"util"`
	Controller           string  `json:"controller"`
	Admitted             float64 `json:"admitted"`
	Shed                 float64 `json:"shed"`
	Aborts               float64 `json:"aborts"`
	Restarts             float64 `json:"restarts"`
	AvgWeightedTardiness float64 `json:"avg_weighted_tardiness"`
	MissRatio            float64 `json:"miss_ratio"`
}

// faultBenchResult is the BENCH_fault.json document.
type faultBenchResult struct {
	N     int               `json:"n"`
	Seeds int               `json:"seeds"`
	Utils []float64         `json:"utils"`
	Plan  *fault.Plan       `json:"plan"`
	Rows  []faultBenchPoint `json:"rows"`
	// SheddingWins reports whether, at every utilization past saturation,
	// the feasibility gate strictly lowered the admitted transactions'
	// weighted tardiness versus admitting everything — the property the
	// admission layer exists for.
	SheddingWins bool `json:"shedding_wins"`
}

// runFaultBench sweeps util × {no gate, feasibility gate, queue cap} under
// the fault plan, averaging each cell over seeds.
func runFaultBench(n, seeds int) (any, error) {
	utils := []float64{1.1, 1.3, 1.5}
	specs := []string{"none", "slack", "queue:" + fmt.Sprint(max(1, n/10))}
	res := faultBenchResult{N: n, Seeds: seeds, Utils: utils, Plan: faultBenchPlan(), SheddingWins: true}

	// One pool job per (util, controller, seed) cell, each with its own
	// controller and fault plan; row i/seeds averages job i.
	var jobs []runner.Job
	for _, util := range utils {
		for _, spec := range specs {
			res.Rows = append(res.Rows, faultBenchPoint{Util: util, Controller: spec})
			for s := 0; s < seeds; s++ {
				cfg := workload.Default(util, experimentSeed(s)).WithWorkflows(4, 1).WithWeights()
				cfg.N = n
				ctrl, err := admit.Parse(spec)
				if err != nil {
					return nil, err
				}
				if _, isNone := ctrl.(admit.Unconditional); isNone {
					ctrl = nil
				}
				jobs = append(jobs, runner.Job{
					Gen:    func(uint64) (*txn.Set, error) { return workload.Generate(cfg) },
					New:    func() sched.Scheduler { return core.New() },
					Config: sim.Config{Faults: faultBenchPlan(), Admit: ctrl},
					Label:  fmt.Sprintf("util %.2f %s seed %d", util, spec, s),
				})
			}
		}
	}
	sums, err := runner.Pool{}.Run(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		p := &res.Rows[i/seeds]
		p.Admitted += float64(sum.N)
		p.Shed += float64(sum.Shed)
		p.Aborts += float64(sum.Aborts)
		p.Restarts += float64(sum.Restarts)
		p.AvgWeightedTardiness += sum.AvgWeightedTardiness
		p.MissRatio += sum.MissRatio
	}
	k := float64(seeds)
	for i := range res.Rows {
		p := &res.Rows[i]
		p.Admitted /= k
		p.Shed /= k
		p.Aborts /= k
		p.Restarts /= k
		p.AvgWeightedTardiness /= k
		p.MissRatio /= k
	}
	for ui := range utils {
		open, slack := res.Rows[ui*len(specs)], res.Rows[ui*len(specs)+1]
		if slack.AvgWeightedTardiness >= open.AvgWeightedTardiness {
			res.SheddingWins = false
		}
	}

	for _, p := range res.Rows {
		fmt.Printf("fault-bench: util=%.2f %-10s admitted=%6.1f shed=%6.1f aborts=%5.1f avgWTard=%9.3f miss=%5.1f%%\n",
			p.Util, p.Controller, p.Admitted, p.Shed, p.Aborts, p.AvgWeightedTardiness, 100*p.MissRatio)
	}
	fmt.Printf("fault-bench: shedding_wins=%v\n", res.SheddingWins)
	if !res.SheddingWins {
		return res, fmt.Errorf("fault-bench: feasibility shedding did not lower admitted weighted tardiness at every util > 1")
	}
	return res, nil
}

// experimentSeed spaces the per-repetition seeds like the experiment
// harness does.
func experimentSeed(i int) uint64 {
	return 0xFA17 + uint64(i)*0x9e3779b97f4a7c15
}
