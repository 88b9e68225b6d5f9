// SLO benchmark: replays the Table-I workload generator across an overload
// sweep with the deterministic SLO engine attached and asks the question the
// alerting layer exists to answer: does the burn-rate alert fire while there
// is still error budget left to act on? For every overload cell the first
// alert_fire must precede the miss-ratio knee — the simulated time at which
// cumulative deadline misses exhaust the whole-run error budget (target miss
// ratio × N) — so the recorded lead time is strictly positive. The result is
// a machine-readable JSON document (committed as BENCH_slo.json) with three
// enforced properties: positive alert lead time on every overload cell,
// byte-identical serial and 4-worker decision-event streams including the
// alert events, and an SLO-engine allocation cost per transaction inside a
// budget of the same shape as the observability overhead budgets.
package main

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	// sloBenchWindow is the tumbling-window length: short enough that a
	// 1000-transaction replay spans a dozen-plus windows and the fast
	// burn-rate lookback reacts early in the ramp.
	sloBenchWindow = 50
	// sloBenchOverload is the utilization above which the lead-time gate
	// applies: below saturation the budget is never exhausted and there is
	// no knee to lead.
	sloBenchOverload = 1.0
	// sloBudgetAllocsPerTxn bounds what the SLO engine itself allocates per
	// transaction on top of an otherwise identical run: window-boundary
	// evaluation is O(classes) with zero steady-state allocations, so the
	// measured value is a handful of alert events and ring warm-up amortized
	// over the replay. Measured ≈ 0.16-0.27 at -n 300; the figure counts
	// every goroutine's allocations, so it varies a little between runs.
	// Re-baseline like the observability budgets (docs/OBSERVABILITY.md,
	// "Overhead budgets").
	sloBudgetAllocsPerTxn = 1.0
)

// sloBenchUtils sweeps the Table-I generator from just under saturation into
// deep overload, where the miss-ratio knee arrives earlier and earlier.
var sloBenchUtils = []float64{0.9, 1.1, 1.3, 1.5}

// sloBenchCell is one (util, seed) row of the sweep.
type sloBenchCell struct {
	Util float64 `json:"util"`
	Seed int     `json:"seed"`
	// Fires/Resolves count alert transitions in the cell's event stream.
	Fires    int `json:"fires"`
	Resolves int `json:"resolves"`
	// FirstAlert is the simulated time of the first alert_fire, -1 if the
	// engine never fired.
	FirstAlert float64 `json:"first_alert"`
	// KneeTime is the simulated time at which cumulative misses exhausted
	// the whole-run error budget, -1 if the budget survived the replay.
	KneeTime float64 `json:"knee_time"`
	// LeadTime = KneeTime - FirstAlert when both exist; the gate requires
	// it strictly positive on every overload cell.
	LeadTime  float64 `json:"lead_time"`
	MissRatio float64 `json:"miss_ratio"`
}

// sloBenchResult is the BENCH_slo.json document.
type sloBenchResult struct {
	N      int     `json:"n"`
	Seeds  int     `json:"seeds"`
	Window float64 `json:"window"`
	// Target is the light-class miss-ratio objective the knee is priced
	// against (the Table-I generator draws unweighted transactions, which
	// all land in the light class).
	Target float64        `json:"target"`
	Cells  []sloBenchCell `json:"cells"`
	// AlertEvents totals alert_fire/alert_resolve events across the serial
	// streams — the digest only proves something if it covers alerts.
	AlertEvents int `json:"alert_events"`
	// SLOAllocsPerTxn is the engine's own allocation cost: allocs/txn of an
	// SLO-enabled run minus an otherwise identical SLO-off run.
	SLOAllocsPerTxn    float64 `json:"slo_allocs_per_txn"`
	BudgetAllocsPerTxn float64 `json:"budget_allocs_per_txn"`
	// Deterministic reports that the serial and 4-worker runs produced
	// byte-identical decision-event streams, alert events included.
	Deterministic bool `json:"deterministic"`
	// AlertLeads is the gate: every overload cell fired before its knee.
	AlertLeads bool `json:"alert_leads"`
	Pass       bool `json:"pass"`
}

// sloBenchConfig returns the engine configuration for one run. cfg comes
// from the -slo flags when given, so the sweep can be re-priced against a
// custom objective; nil selects the default spec at the bench window.
func sloBenchConfig(flagCfg *slo.Config) *slo.Config {
	if flagCfg != nil {
		return flagCfg
	}
	return &slo.Config{Spec: slo.DefaultSpec(), Window: sloBenchWindow}
}

// sloBenchJobs builds one runner job per (util, seed) cell in util-major
// order, each with a private collector and registry.
func sloBenchJobs(n, seeds int, flagCfg *slo.Config) ([]runner.Job, []*obs.Collector) {
	jobs := make([]runner.Job, 0, len(sloBenchUtils)*seeds)
	cols := make([]*obs.Collector, 0, cap(jobs))
	for _, util := range sloBenchUtils {
		for s := 0; s < seeds; s++ {
			util := util
			col := &obs.Collector{}
			cols = append(cols, col)
			seed := experimentSeed(s)
			jobs = append(jobs, runner.Job{
				Gen: func(sd uint64) (*txn.Set, error) {
					return workload.Generate(workload.Default(util, sd).WithN(n))
				},
				Seed: &seed,
				New:  sched.NewEDF,
				Config: sim.Config{
					Sink:    col,
					Metrics: obs.NewRegistry(),
					SLO:     sloBenchConfig(flagCfg),
				},
				Label: fmt.Sprintf("slo-u%.1f-seed%d", util, s),
			})
		}
	}
	return jobs, cols
}

// sloBenchCellFromStream folds one cell's event stream: first alert_fire
// time, the budget-exhaustion knee, and the final miss ratio.
func sloBenchCellFromStream(evs []obs.Event, n int, target float64) sloBenchCell {
	c := sloBenchCell{FirstAlert: -1, KneeTime: -1, LeadTime: -1}
	budget := target * float64(n)
	completions, misses := 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindCompletion:
			completions++
			if ev.Tardiness > 0 {
				misses++
				if c.KneeTime < 0 && float64(misses) > budget {
					c.KneeTime = ev.Time
				}
			}
		case obs.KindAlertFire:
			c.Fires++
			if c.FirstAlert < 0 {
				c.FirstAlert = ev.Time
			}
		case obs.KindAlertResolve:
			c.Resolves++
		case obs.KindArrival, obs.KindDispatch, obs.KindPreempt,
			obs.KindDeadlineMiss, obs.KindShed, obs.KindAbort, obs.KindRestart,
			obs.KindAging, obs.KindModeSwitch, obs.KindStall,
			obs.KindDegradeEnter, obs.KindDegradeExit, obs.KindEject,
			obs.KindRecover, obs.KindFailover, obs.KindRoute,
			obs.KindValidateFail, obs.KindConflictDefer:
			// Only completions and alert transitions locate the knee.
		}
	}
	if completions > 0 {
		c.MissRatio = float64(misses) / float64(completions)
	}
	if c.FirstAlert >= 0 && c.KneeTime >= 0 {
		c.LeadTime = c.KneeTime - c.FirstAlert
	}
	return c
}

// sloBenchAllocs measures the engine's own allocation cost on the hottest
// overload cell: allocs/txn with the engine attached minus allocs/txn of an
// otherwise identical run without it.
func sloBenchAllocs(n int, flagCfg *slo.Config) (float64, error) {
	cfg := workload.Default(sloBenchUtils[len(sloBenchUtils)-1], experimentSeed(0))
	cfg.N = n
	set, err := workload.Generate(cfg)
	if err != nil {
		return 0, err
	}
	run := func(withSLO bool) (int64, error) {
		c := sim.Config{Metrics: obs.NewRegistry()}
		if withSLO {
			c.SLO = sloBenchConfig(flagCfg)
		}
		allocs, _, err := measureAllocs(1, func() error {
			_, err := sim.New(c).Run(set, sched.NewEDF())
			return err
		})
		return allocs, err
	}
	// Warm both paths once so pool and registry warm-up is off the books.
	if _, err := run(false); err != nil {
		return 0, err
	}
	if _, err := run(true); err != nil {
		return 0, err
	}
	off, err := run(false)
	if err != nil {
		return 0, err
	}
	on, err := run(true)
	if err != nil {
		return 0, err
	}
	return (float64(on) - float64(off)) / float64(n), nil
}

// runSLOBench executes the overload sweep twice (serial and 4 workers) to
// enforce the determinism contract, folds the per-cell lead times, measures
// the engine's allocation cost, and gates all three.
func runSLOBench(n, seeds int, flagCfg *slo.Config) (any, error) {
	engCfg := sloBenchConfig(flagCfg)
	target := engCfg.Spec.Classes[0].MissRatio
	if target <= 0 {
		return nil, fmt.Errorf("slo-bench: the light class needs a miss-ratio objective to price the knee")
	}

	_, _, cols, deterministic, err := runSerialAndParallel(func() ([]runner.Job, []*obs.Collector) {
		return sloBenchJobs(n, seeds, flagCfg)
	})
	if err != nil {
		return nil, err
	}

	sloAllocs, err := sloBenchAllocs(n, flagCfg)
	if err != nil {
		return nil, err
	}

	res := sloBenchResult{
		N: n, Seeds: seeds, Window: engCfg.Window, Target: target,
		SLOAllocsPerTxn:    sloAllocs,
		BudgetAllocsPerTxn: sloBudgetAllocsPerTxn,
		AlertLeads:         true,
	}
	for i, util := range sloBenchUtils {
		for s := 0; s < seeds; s++ {
			c := sloBenchCellFromStream(cols[i*seeds+s].Events(), n, target)
			c.Util, c.Seed = util, s
			if util > sloBenchOverload && (c.Fires == 0 || c.KneeTime < 0 || c.LeadTime <= 0) {
				res.AlertLeads = false
			}
			res.AlertEvents += c.Fires + c.Resolves
			res.Cells = append(res.Cells, c)
		}
	}
	res.Deterministic = deterministic && res.AlertEvents > 0
	res.Pass = res.Deterministic && res.AlertLeads && res.SLOAllocsPerTxn <= sloBudgetAllocsPerTxn
	for _, c := range res.Cells {
		fmt.Printf("slo-bench: util=%.1f seed=%d fires=%2d resolves=%2d firstAlert=%8.1f knee=%8.1f lead=%8.1f miss=%5.1f%%\n",
			c.Util, c.Seed, c.Fires, c.Resolves, c.FirstAlert, c.KneeTime, c.LeadTime, 100*c.MissRatio)
	}
	fmt.Printf("slo-bench: deterministic=%v alert_leads=%v alert_events=%d slo-allocs/txn=%.4f (budget %.2f)\n",
		res.Deterministic, res.AlertLeads, res.AlertEvents, res.SLOAllocsPerTxn, res.BudgetAllocsPerTxn)
	if !res.Deterministic {
		return res, fmt.Errorf("slo-bench: serial and 4-worker decision-event streams differ (or carry no alert events)")
	}
	if !res.AlertLeads {
		return res, fmt.Errorf("slo-bench: an overload cell's first alert did not lead the miss-ratio knee")
	}
	if res.SLOAllocsPerTxn > sloBudgetAllocsPerTxn {
		return res, fmt.Errorf("slo-bench: engine allocation budget exceeded: %.4f allocs/txn (budget %.2f)",
			res.SLOAllocsPerTxn, sloBudgetAllocsPerTxn)
	}
	return res, nil
}
