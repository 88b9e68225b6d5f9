package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MultiServer is an extension experiment beyond the paper's single-server
// model: the same policies scheduling a replicated backend of S identical
// servers under global preemptive scheduling, with the offered load scaled
// so each server sees utilization 0.9 (arrival rate = 0.9 * S / mean
// length). The paper's conclusion section claims ASETS* "could be applied
// in any Real-Time system with soft-deadlines"; this experiment checks the
// ordering survives on a web-farm-shaped system.
func MultiServer(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	xs := []float64{1, 2, 4, 8}
	policies := []Policy{
		{Name: "EDF", New: sched.NewEDF},
		{Name: "SRPT", New: sched.NewSRPT},
		{Name: "ASETS*", New: func() sched.Scheduler { return core.New() }},
	}

	runs, err := grid[struct{}]{
		xs:         xs,
		policiesAt: fixed(policies...),
		workload:   func(x float64, seed uint64) workload.Config { return workload.Default(0.9*x, seed) },
		sim:        func(x float64) sim.Config { return sim.Config{Servers: int(x)} },
	}.run(opts)
	if err != nil {
		return nil, err
	}
	series := seedMeans(runs, len(policies), len(xs), len(opts.Seeds), func(r cellRun[struct{}]) float64 { return r.sum.AvgTardiness })

	fig := &report.Figure{
		ID:     "mserver",
		Title:  "Replicated backend: avg tardiness vs server count (per-server load 0.9)",
		XLabel: "servers",
		YLabel: "avg tardiness",
		X:      xs,
	}
	for pi, p := range policies {
		fig.AddSeries(p.Name, series[pi], nil)
	}
	wins := 0
	for xi := range xs {
		if series[2][xi] <= series[0][xi]*1.02 && series[2][xi] <= series[1][xi]*1.02 {
			wins++
		}
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "(extension — no paper claim) The conclusions argue ASETS* generalizes to any soft-deadline real-time system; here it should track the best policy on a replicated backend too.",
		Observations: []string{
			fmt.Sprintf("ASETS* at or below both baselines (within 2%%) at %d of %d server counts", wins, len(xs)),
		},
	}, nil
}
