// Cluster fault-tolerance benchmark: replays the same workload across a
// four-instance fleet three ways — no faults, mid-run instance crashes with
// failover, and the same crashes with failover disabled — and records
// whether the routing tier actually bought the crashed work its deadlines
// back. The result is a small machine-readable JSON document (committed as
// BENCH_cluster.json) with two enforced properties: the failover run stays
// within clusterBenchMissFactor of the no-crash baseline's effective miss
// ratio while the no-failover strawman exceeds it, and the routed decision
// streams of a serial and a 4-worker run are byte-identical.
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// clusterBenchInstances is the fleet width of the benchmark; utilization is
// per instance, so the workload draws clusterBenchUtil times that load.
const (
	clusterBenchInstances = 4
	clusterBenchUtil      = 0.78
	// clusterBenchKMax loosens Table I's deadline slack (KMax 3) so that a
	// failed-over transaction, restarted from scratch on a survivor, can
	// still make its deadline — the regime where failover pays. The
	// no-failover strawman gets the identical workload and still counts
	// every crash-lost transaction as an effective miss.
	clusterBenchKMax = 6.0
	// clusterBenchMissFactor is the gate: crashing 1 in 4 instances must not
	// raise the effective miss ratio past this factor of the no-crash
	// baseline when failover is on — and must exceed it when failover is off,
	// or the cells were too easy to prove anything.
	clusterBenchMissFactor = 2.0
)

// clusterBenchPlans returns the per-instance fault schedule of the crash
// cells: fault domains 1 and 2 crash repeatedly on interleaved schedules,
// each crash destroying the domain's queued and in-flight work.
func clusterBenchPlans() []*fault.Plan {
	crashes := func(starts ...float64) *fault.Plan {
		p := &fault.Plan{}
		for _, at := range starts {
			p.Stalls = append(p.Stalls, fault.Window{Start: at, Duration: 10, Kind: fault.Crash})
		}
		return p
	}
	return []*fault.Plan{
		nil,
		crashes(80, 200, 320, 440),
		crashes(140, 260, 380, 500),
		nil,
	}
}

// clusterBenchRetry is the failover budget of the failover cell: a short
// backoff re-enqueues crash victims almost immediately — with KMax-loosened
// deadlines, restarting on a survivor right away preserves far more slack
// than waiting out the outage would.
func clusterBenchRetry() cluster.Retry {
	return cluster.Retry{Budget: 3, BackoffBase: 0.25, BackoffCap: 2}
}

// clusterBenchCell is one (scenario) row, averaged over seeds.
type clusterBenchCell struct {
	Scenario           string  `json:"scenario"` // baseline | failover | no-failover
	EffectiveMissRatio float64 `json:"effective_miss_ratio"`
	Misses             float64 `json:"misses"`
	Lost               float64 `json:"lost"`
	Failovers          float64 `json:"failovers"`
	Ejections          float64 `json:"ejections"`
	Recoveries         float64 `json:"recoveries"`
}

// clusterBenchResult is the BENCH_cluster.json document.
type clusterBenchResult struct {
	N          int                `json:"n"`
	Seeds      int                `json:"seeds"`
	Instances  int                `json:"instances"`
	Route      string             `json:"route"`
	Retry      cluster.Retry      `json:"retry"`
	MissFactor float64            `json:"miss_factor"`
	Cells      []clusterBenchCell `json:"cells"`
	// Deterministic reports that the serial and 4-worker runs produced
	// byte-identical routed decision streams.
	Deterministic bool `json:"deterministic"`
	// FailoverWins is the gate: failover holds the crash run within
	// MissFactor of the baseline's effective miss ratio while the
	// no-failover strawman exceeds it.
	FailoverWins bool `json:"failover_wins"`
}

// clusterBenchScenarios orders the three cells.
var clusterBenchScenarios = []string{"baseline", "failover", "no-failover"}

// clusterBenchJobs builds one runner job per (scenario, seed) cell, each
// with its own sink, registry and policy, in scenario-major order.
func clusterBenchJobs(n, seeds int) ([]runner.Job, []*obs.Collector) {
	jobs := make([]runner.Job, 0, len(clusterBenchScenarios)*seeds)
	cols := make([]*obs.Collector, 0, cap(jobs))
	for _, scenario := range clusterBenchScenarios {
		for s := 0; s < seeds; s++ {
			cfg := cluster.Config{
				Instances: clusterBenchInstances,
				Policy:    cluster.HealthWeighted{},
				Retry:     clusterBenchRetry(),
				Sink:      &obs.Collector{},
				Metrics:   obs.NewRegistry(),
			}
			if scenario != "baseline" {
				cfg.Faults = clusterBenchPlans()
			}
			cfg.NoFailover = scenario == "no-failover"
			cols = append(cols, cfg.Sink.(*obs.Collector))
			seed := experimentSeed(s)
			jobs = append(jobs, runner.Job{
				Gen: func(sd uint64) (*txn.Set, error) {
					wcfg := workload.Default(clusterBenchUtil*clusterBenchInstances, sd)
					wcfg.N = n
					wcfg.KMax = clusterBenchKMax
					return workload.Generate(wcfg)
				},
				Seed:    &seed,
				New:     func() sched.Scheduler { return core.New() },
				Cluster: &runner.ClusterJob{Config: cfg},
				Label:   fmt.Sprintf("cluster-%s-seed%d", scenario, s),
			})
		}
	}
	return jobs, cols
}

// runClusterBench executes the three scenarios over seeds, twice (serial and
// 4 workers) to enforce the determinism contract, and gates on failover
// containing the crash damage.
func runClusterBench(n, seeds int) (any, error) {
	jobs, _, _, deterministic, err := runSerialAndParallel(func() ([]runner.Job, []*obs.Collector) {
		return clusterBenchJobs(n, seeds)
	})
	if err != nil {
		return nil, err
	}

	res := clusterBenchResult{
		N: n, Seeds: seeds, Instances: clusterBenchInstances,
		Route: cluster.HealthWeighted{}.Name(), Retry: clusterBenchRetry(),
		MissFactor:    clusterBenchMissFactor,
		Deterministic: deterministic,
	}
	k := float64(seeds)
	for i, scenario := range clusterBenchScenarios {
		var c clusterBenchCell
		c.Scenario = scenario
		for s := 0; s < seeds; s++ {
			r := jobs[i*seeds+s].Cluster.Result
			c.EffectiveMissRatio += r.EffectiveMissRatio()
			c.Misses += float64(r.Misses)
			c.Lost += float64(r.Lost)
			c.Failovers += float64(r.Failovers)
			c.Ejections += float64(r.Ejections)
			c.Recoveries += float64(r.Recoveries)
		}
		c.EffectiveMissRatio /= k
		c.Misses /= k
		c.Lost /= k
		c.Failovers /= k
		c.Ejections /= k
		c.Recoveries /= k
		res.Cells = append(res.Cells, c)
	}
	baseline, failover, strawman := res.Cells[0], res.Cells[1], res.Cells[2]
	bound := clusterBenchMissFactor * baseline.EffectiveMissRatio
	res.FailoverWins = failover.EffectiveMissRatio <= bound && strawman.EffectiveMissRatio > bound

	for _, c := range res.Cells {
		fmt.Printf("cluster-bench: %-12s effMiss=%6.2f%% misses=%6.1f lost=%5.1f failovers=%5.1f ejections=%4.1f recoveries=%4.1f\n",
			c.Scenario, 100*c.EffectiveMissRatio, c.Misses, c.Lost, c.Failovers, c.Ejections, c.Recoveries)
	}
	fmt.Printf("cluster-bench: deterministic=%v failover_wins=%v (bound %.2f%%)\n",
		res.Deterministic, res.FailoverWins, 100*bound)
	if !res.Deterministic {
		return res, fmt.Errorf("cluster-bench: serial and 4-worker routed event streams differ")
	}
	if !res.FailoverWins {
		return res, fmt.Errorf("cluster-bench: failover=%.4f strawman=%.4f vs bound %.4f (%.1fx baseline %.4f): failover did not contain the crash damage",
			failover.EffectiveMissRatio, strawman.EffectiveMissRatio, bound, clusterBenchMissFactor, baseline.EffectiveMissRatio)
	}
	return res, nil
}
