package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sessions is an extension experiment for the paper's introduction: "more
// than 20 billion dollars in revenue are lost every year due to excessive
// delays in e-commerce web pages that lead clients to quit their sessions".
// It runs a closed-loop population of interactive users (each page a
// workflow of fragments; the next page requested a think time after the
// previous rendered) and measures the page-abandonment rate — the fraction
// of pages rendered slower than the users' patience — under each policy as
// the backend load grows.
//
// It is the one experiment off the grid: its cells run serially on
// sim.Sim.RunClosedLoop, because a runner.Job has no closed-loop
// mode, and so Options.Parallelism and Options.Validate do not reach it
// (RunClosedLoop rejects a recorder).
func Sessions(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	xs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	policies := []Policy{
		{Name: "FCFS", New: sched.NewFCFS},
		{Name: "EDF", New: sched.NewEDF},
		{Name: "SRPT", New: sched.NewSRPT},
		{Name: "ASETS*", New: func() sched.Scheduler { return core.New() }},
	}
	const users = 40

	// Patience: three times the mean page work — a page that takes three
	// times its no-contention render time loses the user.
	zipf := rng.MustZipf(1, 50, 0.5)
	patience := 3 * zipf.Mean() * 2.5 // mean fragments per page = (1+4)/2

	abandon := make([][]float64, len(policies))
	p95 := make([][]float64, len(policies))
	for pi := range policies {
		abandon[pi] = make([]float64, len(xs))
		p95[pi] = make([]float64, len(xs))
	}
	for xi, u := range xs {
		for pi, p := range policies {
			var abSum, p95Sum float64
			for _, seed := range opts.Seeds {
				cfg := workload.DefaultSessions(users, u, seed)
				set, sessions, err := workload.GenerateSessions(cfg)
				if err != nil {
					return nil, err
				}
				res, err := sim.New(sim.Config{Patience: patience}).RunClosedLoop(set, sessions, p.New())
				if err != nil {
					return nil, err
				}
				abSum += res.AbandonRate
				p95Sum += latencyP95(res.PageLatencies)
			}
			abandon[pi][xi] = abSum / float64(len(opts.Seeds))
			p95[pi][xi] = p95Sum / float64(len(opts.Seeds))
		}
	}

	fig := &report.Figure{
		ID:     "sessions",
		Title:  fmt.Sprintf("Closed-loop sessions (%d users): page abandonment rate (patience %.0f)", users, patience),
		XLabel: "target utilization",
		YLabel: "abandon rate",
		X:      xs,
	}
	for pi, p := range policies {
		fig.AddSeries(p.Name, abandon[pi], nil)
	}
	last := len(xs) - 1
	return &Result{
		Figure:     fig,
		PaperClaim: "(extension — motivated by the introduction) Hypothesis to probe: how much of the lost-session problem is scheduling-policy dependent? Note the patience bound is latency-based, not deadline-based, so response-time-optimal SRPT — not the tardiness-optimizing policies — is the expected winner on abandonment; the experiment quantifies what deadline-centric scheduling costs on that metric.",
		Observations: []string{
			fmt.Sprintf("abandon rate at max load: FCFS %.1f%%, EDF %.1f%%, SRPT %.1f%%, ASETS* %.1f%%",
				100*abandon[0][last], 100*abandon[1][last], 100*abandon[2][last], 100*abandon[3][last]),
			fmt.Sprintf("page p95 latency at max load: FCFS %.1f, EDF %.1f, SRPT %.1f, ASETS* %.1f",
				p95[0][last], p95[1][last], p95[2][last], p95[3][last]),
		},
	}, nil
}

// latencyP95 returns the 95th-percentile page latency over all sessions.
func latencyP95(latencies [][]float64) float64 {
	var all []float64
	for _, sess := range latencies {
		all = append(all, sess...)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	idx := int(0.95 * float64(len(all)-1))
	return all[idx]
}
