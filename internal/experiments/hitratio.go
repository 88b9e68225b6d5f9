package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

// HitRatio contrasts the objective the related work optimizes (deadline hit
// ratio — Haritsa et al.'s AED [5], the MIX family [3]) with the paper's
// objective (tardiness). It runs EDF, AED, MIX and ASETS* over the load
// sweep and reports the deadline MISS ratio alongside average tardiness:
// the Section V argument is that hit-ratio-optimizing hybrids are not the
// right tool when the SLA penalty grows with the delay, and this experiment
// shows both sides of that trade.
func HitRatio(opts Options) (*Result, error) {
	xs := UtilizationGrid()
	policies := []Policy{
		{Name: "EDF", New: sched.NewEDF},
		{Name: "AED", New: func() sched.Scheduler { return sched.NewAED(0xAED) }},
		{Name: "MIX(0.5)", New: sched.NewMIX},
		asetsPolicy(),
	}
	res, err := sweep(opts, xs, fixed(policies...),
		func(x float64, seed uint64) workload.Config { return workload.Default(x, seed) })
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{
		ID:     "hitratio",
		Title:  "Miss ratio vs tardiness objectives: EDF, AED, MIX, ASETS*",
		XLabel: "utilization",
		YLabel: "deadline miss ratio",
		X:      xs,
	}
	for pi, p := range policies {
		ys, errs := means(res.missRatio[pi])
		fig.AddSeries(p.Name+" miss", ys, errs)
	}
	last := len(xs) - 1
	tard := make([]float64, len(policies))
	for pi := range policies {
		tard[pi] = res.avgTardiness[pi][last].Mean()
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "(extension, Section V) Hit-ratio hybrids like AED optimize a different objective; ASETS* should carry the lowest tardiness even where AED's miss ratio is competitive.",
		Observations: []string{
			fmt.Sprintf("avg tardiness at U=1.0: EDF %.1f, AED %.1f, MIX %.1f, ASETS* %.1f",
				tard[0], tard[1], tard[2], tard[3]),
		},
	}, nil
}
