package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// wfSweepUtilization fixes the load for the workflow-shape sweeps; the
// paper's workflow results are presented where tardiness is non-trivial.
const wfSweepUtilization = 0.9

// WorkflowLengthSweep reproduces the Section IV-D robustness claim: "We
// varied the maximum workflow length from three to ten ... in all cases we
// found similar and even better performance", comparing ASETS* to Ready as
// the maximum chain length grows at fixed utilization.
func WorkflowLengthSweep(opts Options) (*Result, error) {
	xs := []float64{3, 4, 5, 6, 7, 8, 9, 10}
	policies := []Policy{
		{Name: "Ready", New: func() sched.Scheduler { return core.NewReady() }},
		asetsPolicy(),
	}
	res, err := sweep(opts, xs, fixed(policies...), func(x float64, seed uint64) workload.Config {
		return workload.Default(wfSweepUtilization, seed).WithWorkflows(int(x), 1)
	})
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{
		ID:     "wf-len",
		Title:  fmt.Sprintf("Avg tardiness vs max workflow length (U=%g)", wfSweepUtilization),
		XLabel: "max workflow length",
		YLabel: "avg tardiness",
		X:      xs,
	}
	for pi, p := range policies {
		ys, errs := means(res.avgTardiness[pi])
		fig.AddSeries(p.Name, ys, errs)
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "ASETS* outperforms Ready under all workflow lengths from three to ten (Section IV-D).",
		Observations: []string{
			fmt.Sprintf("mean improvement across lengths: %.1f%%", meanImprovement(res.avgTardiness[0], res.avgTardiness[1])),
		},
	}, nil
}

// WorkflowMembershipSweep reproduces the companion sweep: "varied the
// maximum number of workflows from one to ten" — transactions shared by up
// to x workflows, forming DAGs rather than chains.
func WorkflowMembershipSweep(opts Options) (*Result, error) {
	xs := []float64{1, 2, 3, 5, 7, 10}
	policies := []Policy{
		{Name: "Ready", New: func() sched.Scheduler { return core.NewReady() }},
		asetsPolicy(),
	}
	res, err := sweep(opts, xs, fixed(policies...), func(x float64, seed uint64) workload.Config {
		return workload.Default(wfSweepUtilization, seed).WithWorkflows(5, int(x))
	})
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{
		ID:     "wf-mem",
		Title:  fmt.Sprintf("Avg tardiness vs max workflow membership (U=%g)", wfSweepUtilization),
		XLabel: "max workflows per transaction",
		YLabel: "avg tardiness",
		X:      xs,
	}
	for pi, p := range policies {
		ys, errs := means(res.avgTardiness[pi])
		fig.AddSeries(p.Name, ys, errs)
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "ASETS* outperforms Ready for every maximum number of workflows from one to ten (Section IV-D).",
		Observations: []string{
			fmt.Sprintf("mean improvement across membership bounds: %.1f%%", meanImprovement(res.avgTardiness[0], res.avgTardiness[1])),
		},
	}, nil
}

// DependentBreakdown is an extension experiment motivated by this
// reproduction (see EXPERIMENTS.md): it splits tardiness between dependent
// and independent transactions, showing where the workflow-level boost
// lands. Series are computed from the same workload scheduled by Ready and
// ASETS*.
func DependentBreakdown(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	xs := UtilizationGrid()

	policies := []Policy{
		{Name: "Ready", New: func() sched.Scheduler { return core.NewReady() }},
		asetsPolicy(),
	}
	// Each job hands over its per-transaction tardiness values, and the
	// fold sums them across seeds without a per-seed subtotal.
	runs, err := grid[tardinessSplit]{
		xs:         xs,
		policiesAt: fixed(policies...),
		workload: func(x float64, seed uint64) workload.Config {
			return workload.Default(x, seed).WithWorkflows(5, 1)
		},
		post: func(set *txn.Set, _ *trace.Recorder) (tardinessSplit, error) {
			var out tardinessSplit
			for _, t := range set.Txns {
				if t.Independent() {
					out.indep = append(out.indep, t.Tardiness())
				} else {
					out.dep = append(out.dep, t.Tardiness())
				}
			}
			return out, nil
		},
	}.run(opts)
	if err != nil {
		return nil, err
	}
	mean := func(vals func(tardinessSplit) []float64) [][]float64 {
		sums := make([][]float64, len(policies))
		counts := make([][]int, len(policies))
		for pi := range sums {
			sums[pi] = make([]float64, len(xs))
			counts[pi] = make([]int, len(xs))
		}
		for _, r := range runs {
			for _, v := range vals(r.out) {
				sums[r.pi][r.xi] += v
			}
			counts[r.pi][r.xi] += len(vals(r.out))
		}
		for pi := range sums {
			for xi, n := range counts[pi] {
				if n > 0 {
					sums[pi][xi] /= float64(n)
				}
			}
		}
		return sums
	}
	dep := mean(func(s tardinessSplit) []float64 { return s.dep })
	indep := mean(func(s tardinessSplit) []float64 { return s.indep })
	readyDep, asetsDep := dep[0], dep[1]
	readyIndep, asetsIndep := indep[0], indep[1]

	fig := &report.Figure{
		ID:     "dep-split",
		Title:  "Tardiness split: dependent vs independent transactions",
		XLabel: "utilization",
		YLabel: "avg tardiness",
		X:      xs,
	}
	fig.AddSeries("Ready dep", readyDep, nil)
	fig.AddSeries("ASETS* dep", asetsDep, nil)
	fig.AddSeries("Ready indep", readyIndep, nil)
	fig.AddSeries("ASETS* indep", asetsIndep, nil)

	var gain float64
	var count int
	for i := range xs {
		if readyDep[i] > 0 {
			gain += (readyDep[i] - asetsDep[i]) / readyDep[i]
			count++
		}
	}
	if count > 0 {
		gain /= float64(count)
	}
	return &Result{
		Figure:     fig,
		PaperClaim: "(extension — no paper claim) The workflow-level boost should benefit dependent transactions, whose urgency Ready hides in the Wait queue.",
		Observations: []string{
			fmt.Sprintf("mean dependent-transaction improvement: %.1f%%", 100*gain),
		},
	}, nil
}

// tardinessSplit is one run's per-transaction tardiness, dependent and
// independent transactions apart, in transaction order.
type tardinessSplit struct {
	dep, indep []float64
}

// meanImprovement averages (ready - asets) / ready over the sweep cells.
func meanImprovement(ready, asets []*metrics.Stream) float64 {
	var sum float64
	var n int
	for i := range ready {
		r := ready[i].Mean()
		if r <= 0 {
			continue
		}
		sum += (r - asets[i].Mean()) / r
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}
