package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

// AblationRepScope compares the two readings of the representative
// transaction (Definition 9): over all remaining members (the formal text,
// default) versus excluding the current head (the reading suggested by
// Example 4, where head and representative are distinct transactions).
func AblationRepScope(opts Options) (*Result, error) {
	xs := UtilizationGrid()
	policies := []Policy{
		{Name: "rep=all", New: func() sched.Scheduler {
			return core.New(core.WithName("rep=all"))
		}},
		{Name: "rep=tail", New: func() sched.Scheduler {
			return core.New(core.WithHeadExcludedRep(), core.WithName("rep=tail"))
		}},
	}
	res, err := sweep(opts, xs, fixed(policies...), func(x float64, seed uint64) workload.Config {
		return workload.Default(x, seed).WithWorkflows(5, 1).WithWeights()
	})
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{
		ID:     "abl-rep",
		Title:  "Ablation: representative over all members vs excluding the head",
		XLabel: "utilization",
		YLabel: "avg weighted tardiness",
		X:      xs,
	}
	for pi, p := range policies {
		ys, errs := means(res.avgWeighted[pi])
		fig.AddSeries(p.Name, ys, errs)
	}
	maxRel := 0.0
	for xi := range xs {
		a := res.avgWeighted[0][xi].Mean()
		b := res.avgWeighted[1][xi].Mean()
		if a > 0 {
			rel := (b - a) / a
			if rel < 0 {
				rel = -rel
			}
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "(ablation — no paper claim) Example 4 treats head and representative as distinct transactions; Definition 9's formal text includes every remaining member. The readings should be close.",
		Observations: []string{
			fmt.Sprintf("max relative difference between representative scopes: %.1f%%", 100*maxRel),
		},
	}, nil
}

// Fig15Extended widens Figure 15's comparison with the related-work
// baselines the paper discusses in Section V: HVF (value only, [3]) and MIX
// (static deadline/value blend, [3]) alongside EDF, HDF and ASETS*. The
// paper argues ASETS* dominates because the blend is adaptive rather than a
// fixed system parameter; this experiment makes that argument measurable.
func Fig15Extended(opts Options) (*Result, error) {
	xs := UtilizationGrid()
	policies := []Policy{
		{Name: "EDF", New: sched.NewEDF},
		{Name: "HDF", New: sched.NewHDF},
		{Name: "HVF", New: sched.NewHVF},
		{Name: "MIX(0.5)", New: sched.NewMIX},
		asetsPolicy(),
	}
	res, err := sweep(opts, xs, fixed(policies...), func(x float64, seed uint64) workload.Config {
		return workload.Default(x, seed).WithWorkflows(5, 1).WithWeights()
	})
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{
		ID:     "fig15x",
		Title:  "General case with related-work baselines (HVF, MIX)",
		XLabel: "utilization",
		YLabel: "avg weighted tardiness",
		X:      xs,
	}
	for pi, p := range policies {
		ys, errs := means(res.avgWeighted[pi])
		fig.AddSeries(p.Name, ys, errs)
	}
	asets := len(policies) - 1
	wins := 0
	for xi := range xs {
		best := true
		for pi := 0; pi < asets; pi++ {
			if res.avgWeighted[pi][xi].Mean() < res.avgWeighted[asets][xi].Mean() {
				best = false
				break
			}
		}
		if best {
			wins++
		}
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "ASETS* adapts between deadline- and value-driven behaviour, so it should dominate the static MIX blend and the value-only HVF across the sweep (Section V discussion).",
		Observations: []string{
			fmt.Sprintf("ASETS* best or tied at %d of %d utilizations", wins, len(xs)),
		},
	}, nil
}
