package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Structural decomposes workflow-level tardiness into the part no scheduler
// can avoid and the part scheduling is responsible for. For every
// transaction, deadline - arrival - criticalPath bounds the best achievable
// lateness on a single backend (a dependency chain executes serially even
// on an idle server); max(0, -that) summed over transactions is the
// structural tardiness floor. The experiment plots the floor against the
// measured tardiness of Ready and ASETS* across the load sweep — the gap
// between floor and measurement is the scheduling-addressable tardiness
// that Figure 14's improvements must come out of, which is why the
// reproduction's relative margins (EXPERIMENTS.md) are sensitive to the
// workflow generator's conflict structure.
func Structural(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	xs := UtilizationGrid()

	policies := []Policy{
		{Name: "Ready", New: func() sched.Scheduler { return core.NewReady() }},
		asetsPolicy(),
	}
	// Each job also measures its workload's structural floor: the mean
	// over transactions of max(0, -slack against the critical path).
	runs, err := grid[float64]{
		xs:         xs,
		policiesAt: fixed(policies...),
		workload: func(x float64, seed uint64) workload.Config {
			return workload.Default(x, seed).WithWorkflows(5, 1)
		},
		post: func(set *txn.Set, _ *trace.Recorder) (float64, error) {
			slack, err := txn.SlackAgainstCriticalPath(set)
			if err != nil {
				return 0, err
			}
			var f float64
			for _, s := range slack {
				if s < 0 {
					f += -s
				}
			}
			return f / float64(set.Len()), nil
		},
	}.run(opts)
	if err != nil {
		return nil, err
	}
	n := len(opts.Seeds)
	measured := seedMeans(runs, len(policies), len(xs), n, func(r cellRun[float64]) float64 { return r.sum.AvgTardiness })
	// The floor depends on the workload alone; read it off Ready's cells.
	floor := seedMeans(runs, len(policies), len(xs), n, func(r cellRun[float64]) float64 { return r.out })[0]
	ready, asets := measured[0], measured[1]

	fig := &report.Figure{
		ID:     "structural",
		Title:  "Structural tardiness floor vs measured tardiness (fig14 workload)",
		XLabel: "utilization",
		YLabel: "avg tardiness",
		X:      xs,
	}
	fig.AddSeries("structural floor", floor, nil)
	fig.AddSeries("Ready", ready, nil)
	fig.AddSeries("ASETS*", asets, nil)

	// Share of Ready's tardiness that is structural, at low and high load.
	shareAt := func(xi int) float64 {
		if ready[xi] == 0 {
			return 0
		}
		return floor[xi] / ready[xi]
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "(extension — analysis of Figure 14's margins) The tardiness floor set by critical paths and SLAs is policy-independent; only the excess above it is addressable by scheduling.",
		Observations: []string{
			fmt.Sprintf("structural share of Ready's tardiness: %.0f%% at U=0.1, %.0f%% at U=1.0",
				100*shareAt(0), 100*shareAt(len(xs)-1)),
		},
	}, nil
}
