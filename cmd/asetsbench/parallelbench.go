// Parallel runner benchmark: measures the wall-clock gain of fanning a
// representative experiment sweep across the worker pool, and — the part
// the gate enforces — asserts the parallel gather is bit-identical to the
// serial path. The result is a small machine-readable JSON document
// (committed as BENCH_parallel.json).
package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// parallelBenchResult is the BENCH_parallel.json document.
type parallelBenchResult struct {
	Experiment      string  `json:"experiment"`       // what the jobs sweep
	N               int     `json:"n"`                // transactions per run
	Seeds           int     `json:"seeds"`            // replications per cell
	Jobs            int     `json:"jobs"`             // total pool jobs
	Workers         int     `json:"workers"`          // parallel worker count
	CPUs            int     `json:"cpus"`             // runtime.NumCPU at bench time
	SerialSeconds   float64 `json:"serial_seconds"`   // Pool{Workers: 1}
	ParallelSeconds float64 `json:"parallel_seconds"` // Pool{Workers: workers}
	Speedup         float64 `json:"speedup"`          // serial / parallel
	Identical       bool    `json:"identical"`        // summaries bit-exact
	SpeedupEnforced bool    `json:"speedup_enforced"` // ≥2× asserted (needs ≥4 CPUs)
}

// parallelBenchJobs builds the benchmark sweep: the figure-14 style
// policies × utilizations × seeds grid, with each cell's workload seed baked
// into its Gen closure, exactly as internal/experiments submits cells.
func parallelBenchJobs(n, seeds int, baseSeed uint64) []runner.Job {
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"EDF", sched.NewEDF},
		{"SRPT", sched.NewSRPT},
		{"Ready", func() sched.Scheduler { return core.NewReady() }},
		{"ASETS*", func() sched.Scheduler { return core.New() }},
	}
	utils := []float64{0.7, 0.9, 1.1}
	var jobs []runner.Job
	for _, u := range utils {
		for _, p := range policies {
			for s := 0; s < seeds; s++ {
				cfg := workload.Default(u, baseSeed+uint64(s)*0x9e3779b97f4a7c15).WithWorkflows(4, 1).WithWeights()
				cfg.N = n
				jobs = append(jobs, runner.Job{
					Gen:   func(uint64) (*txn.Set, error) { return workload.Generate(cfg) },
					New:   p.mk,
					Label: fmt.Sprintf("util=%v policy=%s seed=%d", u, p.name, s),
				})
			}
		}
	}
	return jobs
}

// runParallelBench times the same job slice through Pool{Workers: 1} and
// Pool{Workers: workers}, verifies the gathered summaries are deeply
// identical, and writes the JSON document. The bit-exactness check always
// gates; the ≥2× speedup criterion is asserted only on machines with at
// least four CPUs, where the parallel path can physically win, and the
// document records whether it was enforced.
func runParallelBench(n, seeds, workers int, baseSeed uint64) (any, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 4 {
		// The acceptance criterion is stated at -parallel ≥ 4; oversubscribing
		// a smaller machine is harmless (jobs are compute-bound but short).
		workers = 4
	}

	timed := func(poolWorkers int) ([]*metrics.Summary, float64, error) {
		jobs := parallelBenchJobs(n, seeds, baseSeed)
		start := time.Now()
		sums, err := runner.Pool{Workers: poolWorkers}.Run(context.Background(), jobs)
		return sums, time.Since(start).Seconds(), err
	}

	// Warm up once so page-ins and first-run allocator growth are not
	// charged to the serial leg.
	if _, _, err := timed(1); err != nil {
		return nil, err
	}
	serialSums, serialSec, err := timed(1)
	if err != nil {
		return nil, err
	}
	parallelSums, parallelSec, err := timed(workers)
	if err != nil {
		return nil, err
	}

	res := parallelBenchResult{
		Experiment:      "policies x utilization sweep (fig14-style workloads)",
		N:               n,
		Seeds:           seeds,
		Jobs:            len(serialSums),
		Workers:         workers,
		CPUs:            runtime.NumCPU(),
		SerialSeconds:   serialSec,
		ParallelSeconds: parallelSec,
		Identical:       reflect.DeepEqual(serialSums, parallelSums),
		SpeedupEnforced: runtime.NumCPU() >= 4 && workers >= 4,
	}
	if parallelSec > 0 {
		res.Speedup = serialSec / parallelSec
	}

	if !res.Identical {
		return res, fmt.Errorf("parallel summaries are not bit-identical to the serial path (workers=%d)", workers)
	}
	if res.SpeedupEnforced && res.Speedup < 2 {
		return res, fmt.Errorf("speedup %.2fx below the 2x criterion (workers=%d cpus=%d)", res.Speedup, workers, res.CPUs)
	}
	return res, nil
}
