package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Domino quantifies the paper's Section III-A.1 motivation: under load, EDF
// "might give high priority to a transaction with an early deadline that it
// has already missed ... As a result, both transactions will miss their
// deadlines and accumulate tardiness" — the domino effect. For each
// utilization we measure the mean share of the backlog that is already past
// saving (t + remaining > deadline) under EDF, SRPT and ASETS*. EDF's share
// grows steeply with load; ASETS* tracks the lower envelope because the
// expiry migration moves lost causes to the SRPT list.
func Domino(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	xs := UtilizationGrid()
	policies := []Policy{
		{Name: "EDF", New: sched.NewEDF},
		{Name: "SRPT", New: sched.NewSRPT},
		{Name: "ASETS*", New: func() sched.Scheduler { return core.New() }},
	}

	// Each job computes its late-backlog share in the worker, where its
	// mutated set and recorder are alive.
	runs, err := grid[float64]{
		xs:         xs,
		policiesAt: fixed(policies...),
		workload:   workload.Default,
		record:     true,
		post: func(set *txn.Set, rec *trace.Recorder) (float64, error) {
			return analysis.MeanLateShare(analysis.BacklogSeries(set, rec, 200)), nil
		},
	}.run(opts)
	if err != nil {
		return nil, err
	}
	series := seedMeans(runs, len(policies), len(xs), len(opts.Seeds), func(r cellRun[float64]) float64 { return r.out })

	fig := &report.Figure{
		ID:     "domino",
		Title:  "Domino effect: mean share of backlog already past its deadline",
		XLabel: "utilization",
		YLabel: "late share of backlog",
		X:      xs,
	}
	for pi, p := range policies {
		fig.AddSeries(p.Name, series[pi], nil)
	}
	last := len(xs) - 1
	return &Result{
		Figure:     fig,
		PaperClaim: "(motivation, Section III-A.1) EDF under overload keeps scheduling transactions whose deadlines are already lost, cascading misses; ASETS* avoids this by migrating them to the SRPT list.",
		Observations: []string{
			fmt.Sprintf("late share at U=1.0: EDF %.2f, SRPT %.2f, ASETS* %.2f",
				series[0][last], series[1][last], series[2][last]),
		},
	}, nil
}
