// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section IV). Each benchmark runs the corresponding experiment end to end
// — workload generation, simulation of every policy over the paper's
// utilization or activation-rate sweep, five seeded runs per cell — and
// reports the headline observation via custom benchmark metrics so the
// bench log doubles as a reproduction record:
//
//	go test -bench=. -benchmem
//
// Custom metrics emitted per figure (units are figure-specific):
//
//	xover-util     EDF/SRPT crossover utilization
//	gain-pct       max ASETS* improvement over the best competitor
//	cost-pct       balance-aware average-case cost
//
// The simulation work is deterministic, so ns/op measures the real cost of
// regenerating the figure.
package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/experiments"
)

// benchOpts are smaller than the paper's full scale (1000 transactions,
// five seeds) so the whole suite stays laptop-friendly; cmd/asetsbench runs
// the full-scale version.
func benchOpts() repro.ExperimentOptions {
	return repro.ExperimentOptions{
		N:     500,
		Seeds: []uint64{101, 202, 303},
	}
}

// runFigure executes a registered experiment b.N times and attaches the
// numeric observations as custom metrics.
func runFigure(b *testing.B, id string) {
	b.Helper()
	run, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportObservations(b, last)
}

// reportObservations parses the experiment's observation strings for
// percentages and crossover values and republishes them as benchmark
// metrics.
func reportObservations(b *testing.B, res *experiments.Result) {
	b.Helper()
	for _, obs := range res.Observations {
		switch {
		case strings.Contains(obs, "crossover at utilization"):
			var v float64
			if _, err := fmtSscanSuffix(obs, "crossover at utilization", &v); err == nil {
				b.ReportMetric(v, "xover-util")
			}
		case strings.Contains(obs, "max ASETS* gain"):
			if v, ok := firstPercent(obs); ok {
				b.ReportMetric(v, "gain-pct")
			}
		case strings.Contains(obs, "max worst-case improvement"):
			if v, ok := firstPercent(obs); ok {
				b.ReportMetric(v, "gain-pct")
			}
		case strings.Contains(obs, "max average-case cost"):
			if v, ok := firstPercent(obs); ok {
				b.ReportMetric(v, "cost-pct")
			}
		}
	}
}

// fmtSscanSuffix scans one float immediately after marker in s.
func fmtSscanSuffix(s, marker string, v *float64) (int, error) {
	idx := strings.Index(s, marker)
	rest := strings.TrimSpace(s[idx+len(marker):])
	return sscanFloat(rest, v)
}

func sscanFloat(s string, v *float64) (int, error) {
	end := 0
	for end < len(s) && (s[end] == '-' || s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	if end == 0 {
		return 0, errNoFloat
	}
	var x float64
	var neg bool
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
	}
	frac := -1.0
	for ; i < end; i++ {
		if s[i] == '.' {
			frac = 0.1
			continue
		}
		d := float64(s[i] - '0')
		if frac < 0 {
			x = x*10 + d
		} else {
			x += d * frac
			frac /= 10
		}
	}
	if neg {
		x = -x
	}
	*v = x
	return 1, nil
}

var errNoFloat = &parseError{"no float"}

type parseError struct{ msg string }

func (e *parseError) Error() string { return e.msg }

// firstPercent extracts the first "<float>%" in s.
func firstPercent(s string) (float64, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '%' {
			j := i
			for j > 0 && (s[j-1] == '.' || s[j-1] == '-' || (s[j-1] >= '0' && s[j-1] <= '9')) {
				j--
			}
			if j < i {
				var v float64
				if _, err := sscanFloat(s[j:i], &v); err == nil {
					return v, true
				}
			}
		}
	}
	return 0, false
}

// --- One benchmark per paper table/figure (DESIGN.md experiment index). ---

// BenchmarkFig08TransactionLevelLowUtil regenerates Figure 8: average
// tardiness of FCFS/LS/EDF/SRPT/ASETS* at utilization 0.1-0.5.
func BenchmarkFig08TransactionLevelLowUtil(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig09TransactionLevelHighUtil regenerates Figure 9 (0.6-1.0).
func BenchmarkFig09TransactionLevelHighUtil(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig10NormalizedKmax3 regenerates Figure 10: ASETS* tardiness
// normalized to EDF and SRPT at kmax=3.
func BenchmarkFig10NormalizedKmax3(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkFig11NormalizedKmax1 regenerates Figure 11 (kmax=1).
func BenchmarkFig11NormalizedKmax1(b *testing.B) { runFigure(b, "fig11") }

// BenchmarkFig12NormalizedKmax2 regenerates Figure 12 (kmax=2).
func BenchmarkFig12NormalizedKmax2(b *testing.B) { runFigure(b, "fig12") }

// BenchmarkFig13NormalizedKmax4 regenerates Figure 13 (kmax=4).
func BenchmarkFig13NormalizedKmax4(b *testing.B) { runFigure(b, "fig13") }

// BenchmarkFig14WorkflowLevel regenerates Figure 14: ASETS* versus Ready on
// chain workflows (max length 5, membership 1).
func BenchmarkFig14WorkflowLevel(b *testing.B) { runFigure(b, "fig14") }

// BenchmarkFig15GeneralCase regenerates Figure 15: average weighted
// tardiness of ASETS* versus EDF and HDF with workflows and weights.
func BenchmarkFig15GeneralCase(b *testing.B) { runFigure(b, "fig15") }

// BenchmarkFig16BalanceWorstCase regenerates Figure 16: maximum weighted
// tardiness across time-based activation rates.
func BenchmarkFig16BalanceWorstCase(b *testing.B) { runFigure(b, "fig16") }

// BenchmarkFig17BalanceAvgCase regenerates Figure 17: the average-case cost
// of the same sweep.
func BenchmarkFig17BalanceAvgCase(b *testing.B) { runFigure(b, "fig17") }

// BenchmarkTable1WorkloadGeneration regenerates the Table I compliance
// check: realized utilization versus specification.
func BenchmarkTable1WorkloadGeneration(b *testing.B) { runFigure(b, "tab1") }

// BenchmarkAlphaSweepExtension regenerates the experiment the paper
// describes without plots: crossover location versus Zipf skew.
func BenchmarkAlphaSweepExtension(b *testing.B) { runFigure(b, "alpha") }

// BenchmarkAblationDecisionRule compares the Fig. 7 rule against the
// Section III-B symmetric reading.
func BenchmarkAblationDecisionRule(b *testing.B) { runFigure(b, "abl-rule") }

// BenchmarkAblationCountBasedBalance sweeps the count-based activation
// variant of Section III-D.
func BenchmarkAblationCountBasedBalance(b *testing.B) { runFigure(b, "abl-count") }

// BenchmarkWorkflowLengthSweep regenerates the Section IV-D robustness
// sweep over maximum workflow length (3..10).
func BenchmarkWorkflowLengthSweep(b *testing.B) { runFigure(b, "wf-len") }

// BenchmarkWorkflowMembershipSweep regenerates the Section IV-D sweep over
// maximum workflow membership (1..10).
func BenchmarkWorkflowMembershipSweep(b *testing.B) { runFigure(b, "wf-mem") }

// BenchmarkDependentBreakdown runs the extension experiment splitting
// tardiness between dependent and independent transactions.
func BenchmarkDependentBreakdown(b *testing.B) { runFigure(b, "dep-split") }

// BenchmarkAblationRepScope compares the two readings of Definition 9's
// representative transaction (all members vs excluding the head).
func BenchmarkAblationRepScope(b *testing.B) { runFigure(b, "abl-rep") }

// BenchmarkFig15Extended widens Figure 15 with the related-work baselines
// HVF and MIX discussed in Section V.
func BenchmarkFig15Extended(b *testing.B) { runFigure(b, "fig15x") }

// BenchmarkDominoEffect measures the Section III-A.1 motivation: the share
// of the backlog that is already past its deadline under EDF, SRPT and
// ASETS* across the load sweep.
func BenchmarkDominoEffect(b *testing.B) { runFigure(b, "domino") }

// BenchmarkMultiServerExtension runs the replicated-backend extension:
// EDF, SRPT and ASETS* over 1-8 identical servers at per-server load 0.9.
func BenchmarkMultiServerExtension(b *testing.B) { runFigure(b, "mserver") }

// BenchmarkSessionsExtension runs the closed-loop session experiment:
// page abandonment rate under interactive users (the introduction's
// lost-revenue scenario).
func BenchmarkSessionsExtension(b *testing.B) { runFigure(b, "sessions") }

// BenchmarkCacheExtension sweeps the fragment-cache hit ratio (Section
// II-A's materialization note) and reports crossover movement.
func BenchmarkCacheExtension(b *testing.B) { runFigure(b, "cache") }

// BenchmarkStructuralFloor decomposes fig14's tardiness into the
// policy-independent structural floor and the scheduling-addressable rest.
func BenchmarkStructuralFloor(b *testing.B) { runFigure(b, "structural") }

// BenchmarkHitRatioObjectives contrasts hit-ratio hybrids (AED, MIX) with
// the tardiness objective across the load sweep.
func BenchmarkHitRatioObjectives(b *testing.B) { runFigure(b, "hitratio") }

// BenchmarkBurstExtension compares Poisson against ON/OFF bursty arrivals —
// the introduction's premise that web traffic is bursty.
func BenchmarkBurstExtension(b *testing.B) { runFigure(b, "burst") }

// --- Micro-benchmarks: scheduler hot paths. ---

// benchScheduler measures one full simulation of a 1000-transaction
// workload under the given policy.
func benchScheduler(b *testing.B, mk func() repro.Scheduler, cfg repro.WorkloadConfig) {
	b.Helper()
	set := repro.MustGenerate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repro.MustRun(set, mk(), repro.SimConfig{})
	}
}

// BenchmarkSchedulerEDF measures EDF on the default workload at U=0.9.
func BenchmarkSchedulerEDF(b *testing.B) {
	benchScheduler(b, func() repro.Scheduler { return repro.NewEDF() }, repro.DefaultWorkload(0.9, 7))
}

// BenchmarkSchedulerSRPT measures SRPT on the default workload at U=0.9.
func BenchmarkSchedulerSRPT(b *testing.B) {
	benchScheduler(b, func() repro.Scheduler { return repro.NewSRPT() }, repro.DefaultWorkload(0.9, 7))
}

// BenchmarkSchedulerASETSStarTransactionLevel measures ASETS* on an
// independent workload (transaction level).
func BenchmarkSchedulerASETSStarTransactionLevel(b *testing.B) {
	benchScheduler(b, func() repro.Scheduler { return repro.NewASETSStar() }, repro.DefaultWorkload(0.9, 7))
}

// BenchmarkSchedulerASETSStarWorkflowLevel measures ASETS* with chain
// workflows and weights (the general case).
func BenchmarkSchedulerASETSStarWorkflowLevel(b *testing.B) {
	benchScheduler(b, func() repro.Scheduler { return repro.NewASETSStar() },
		repro.DefaultWorkload(0.9, 7).WithWorkflows(5, 1).WithWeights())
}

// BenchmarkSchedulerReadyWorkflowLevel measures the Ready baseline on the
// same workload for comparison.
func BenchmarkSchedulerReadyWorkflowLevel(b *testing.B) {
	benchScheduler(b, func() repro.Scheduler { return repro.NewReady() },
		repro.DefaultWorkload(0.9, 7).WithWorkflows(5, 1).WithWeights())
}

// BenchmarkASETSInit measures building ASETS* scheduler state — workflows,
// entities, membership index and heaps — over a 10k-transaction set, the
// per-run set-up a fresh simulation or cluster instance pays. Sub-benchmarks
// cover the independent (singleton workflow) and chain workflow shapes.
func BenchmarkASETSInit(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  repro.WorkloadConfig
	}{
		{"independent", repro.DefaultWorkload(0.9, 7)},
		{"workflows", repro.DefaultWorkload(0.9, 7).WithWorkflows(5, 1).WithWeights()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg
			cfg.N = 10_000
			set := repro.MustGenerate(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repro.NewASETSStar().Init(set)
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures the Table I generator itself.
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := repro.DefaultWorkload(0.9, 7).WithWorkflows(5, 3).WithWeights()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		repro.MustGenerate(cfg)
	}
}
