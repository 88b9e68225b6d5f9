// Package runner is the parallel experiment engine: it fans independent
// simulation runs out across a bounded worker pool and gathers their
// summaries in job order, with results byte-identical to executing the same
// jobs serially. Every figure of the paper's evaluation is a sweep
// (policies × load points × replications) of runs that share nothing, so
// the sweep harness (internal/experiments) and the benchmark CLI
// (cmd/asetsbench) submit their cells here instead of looping in place.
//
// Determinism contract (docs/PARALLELISM.md):
//
//   - Every job owns its workload. A Job.Set is deep-copied with
//     txn.Set.Clone before running; a Job.Gen regenerates a private set
//     from the job's seed. Nothing a run mutates is visible to another run
//     or to the caller's original set.
//   - Seeds are a pure function of position: job i with Seed unset draws
//     rng.Derive(pool.BaseSeed, i), fixed at submission, never influenced
//     by goroutine scheduling.
//   - Results are gathered in job order, so downstream floating-point
//     aggregation visits summaries in the same order regardless of the
//     worker count, and Pool{Workers: 1} is bit-equal to Workers: N.
//   - Observability state is per-job: two jobs may not share a Recorder,
//     Sink or Metrics registry. Each run's registry is read on its own
//     after the pool returns.
package runner

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
)

// ClusterJob routes a job through the fault-tolerant cluster engine
// (internal/cluster) instead of the single-backend simulator: the workload
// is distributed across Config.Instances fault domains with failover. The
// determinism contract is unchanged — a cluster run is a pure function of
// its seeds, so serial and parallel pools produce byte-identical routed
// event streams.
type ClusterJob struct {
	// Config is the cluster configuration. NewScheduler may be left nil to
	// reuse the job's scheduler factory (Job.New); Sink, Metrics, Status and
	// any stateful Policy must not be shared with another job in the same
	// Run call.
	Config cluster.Config
	// Result holds the cluster run's outcome after a successful Run — the
	// failover accounting the plain metrics.Summary cannot carry.
	Result *cluster.Result
}

// Job is one independent simulation run.
type Job struct {
	// Set is the workload to run. The pool clones it before the run, so
	// the same Set may back any number of jobs and remains untouched for
	// the caller. Exactly one of Set and Gen must be non-nil.
	Set *txn.Set
	// Gen builds the job's workload from its seed (see Seed). Generation
	// happens inside the worker, so large sweeps never hold every workload
	// in memory at once.
	Gen func(seed uint64) (*txn.Set, error)
	// Seed, when non-nil, overrides the pool's derived seed for this job.
	// Leave nil to draw rng.Derive(pool.BaseSeed, jobIndex).
	Seed *uint64
	// New constructs the job's scheduler. A fresh scheduler is built per
	// run; factories must not share mutable state between calls.
	New func() sched.Scheduler
	// Config is the job's simulation configuration. Recorder, Sink and
	// Metrics must not be shared with any other job in the same Run call.
	// Ignored when Cluster is set.
	Config sim.Config
	// Cluster, when non-nil, runs the job on the cluster engine instead of
	// the single-backend simulator; see ClusterJob.
	Cluster *ClusterJob
	// Post, when non-nil, runs in the worker after a successful simulation
	// with the job's private set and summary — the seam for per-run
	// schedule validation. A Post error fails the job.
	Post func(set *txn.Set, summary *metrics.Summary) error
	// Label annotates errors from this job (falls back to the job index).
	Label string
}

// Pool executes slices of Jobs over a bounded set of worker goroutines.
// The zero value is ready to use.
type Pool struct {
	// Workers bounds concurrent simulations: 0 means runtime.GOMAXPROCS(0),
	// 1 executes the jobs serially on the calling goroutine (the legacy
	// path — bit-equal to any other worker count by construction).
	Workers int
	// BaseSeed is expanded with rng.Derive(BaseSeed, jobIndex) into the
	// per-job seeds consumed by Job.Gen.
	BaseSeed uint64
}

// Run executes jobs and returns their summaries in job order. On error the
// summaries are nil and the returned error is the failing job's, wrapped
// with its label; when several jobs fail, the lowest-indexed recorded
// failure wins. Cancelling ctx abandons not-yet-started jobs and returns
// ctx.Err().
func (p Pool) Run(ctx context.Context, jobs []Job) ([]*metrics.Summary, error) {
	if err := p.validate(jobs); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]*metrics.Summary, len(jobs))
	errs := make([]error, len(jobs))

	if workers <= 1 {
		// Serial path: run in place on the calling goroutine. Identical
		// per-job code, so the parallel path can be checked bit-for-bit
		// against it.
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if errs[i] = p.runJob(&jobs[i], i, results); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return results, nil
	}

	// Parallel path: a shared index feeds workers; cancellation (external
	// or first-error) stops the feed. Job i's result always lands in
	// results[i], so gathering is in job order no matter which worker ran
	// it or when it finished.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[i] = p.runJob(&jobs[i], i, results); errs[i] != nil {
					cancel()
				}
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runJob executes one job into results[i].
func (p Pool) runJob(job *Job, i int, results []*metrics.Summary) error {
	set, err := p.workload(job, i)
	if err != nil {
		return p.jobErr(job, i, err)
	}
	var summary *metrics.Summary
	if job.Cluster != nil {
		ccfg := job.Cluster.Config
		if ccfg.NewScheduler == nil {
			ccfg.NewScheduler = job.New
		}
		res, err := cluster.New(ccfg).Run(set)
		if err != nil {
			return p.jobErr(job, i, err)
		}
		job.Cluster.Result = res
		summary = res.Summary
	} else if summary, err = sim.New(job.Config).Run(set, job.New()); err != nil {
		return p.jobErr(job, i, err)
	}
	if job.Post != nil {
		if err := job.Post(set, summary); err != nil {
			return p.jobErr(job, i, err)
		}
	}
	results[i] = summary
	return nil
}

// workload materializes the job's private transaction set.
func (p Pool) workload(job *Job, i int) (*txn.Set, error) {
	if job.Set != nil {
		return job.Set.Clone(), nil
	}
	seed := rng.Derive(p.BaseSeed, uint64(i))
	if job.Seed != nil {
		seed = *job.Seed
	}
	return job.Gen(seed)
}

func (p Pool) jobErr(job *Job, i int, err error) error {
	if job.Label != "" {
		return fmt.Errorf("runner: job %d (%s): %w", i, job.Label, err)
	}
	return fmt.Errorf("runner: job %d: %w", i, err)
}

// validate rejects malformed jobs and observability state shared between
// jobs, which would race under concurrency and break the determinism
// contract even without racing.
func (p Pool) validate(jobs []Job) error {
	type obsRef struct {
		kind string
		ptr  any
	}
	seen := make(map[obsRef]int)
	claim := func(i int, kind string, ptr any) error {
		if ptr == nil {
			return nil
		}
		ref := obsRef{kind: kind, ptr: ptr}
		if j, dup := seen[ref]; dup {
			return fmt.Errorf("runner: jobs %d and %d share a %s; per-job observability state must be private (give each job its own and read them after the run)", j, i, kind)
		}
		seen[ref] = i
		return nil
	}
	for i := range jobs {
		job := &jobs[i]
		if (job.Set == nil) == (job.Gen == nil) {
			return fmt.Errorf("runner: job %d must carry exactly one of Set and Gen", i)
		}
		if job.New == nil {
			return fmt.Errorf("runner: job %d has no scheduler factory", i)
		}
		if err := claim(i, "trace recorder", ptrOrNil(job.Config.Recorder)); err != nil {
			return err
		}
		if err := claim(i, "metrics registry", ptrOrNil(job.Config.Metrics)); err != nil {
			return err
		}
		// Discard is stateless and freely shareable; non-comparable sink
		// types (obs.Tee wrappers) cannot be identity-checked, so the
		// duplicate detection is best-effort for them.
		if s := job.Config.Sink; s != nil && s != obs.Discard && reflect.TypeOf(s).Comparable() {
			if err := claim(i, "event sink", s); err != nil {
				return err
			}
		}
		if cj := job.Cluster; cj != nil {
			if err := claim(i, "metrics registry", ptrOrNil(cj.Config.Metrics)); err != nil {
				return err
			}
			if err := claim(i, "status board", ptrOrNil(cj.Config.Status)); err != nil {
				return err
			}
			if s := cj.Config.Sink; s != nil && s != obs.Discard && reflect.TypeOf(s).Comparable() {
				if err := claim(i, "event sink", s); err != nil {
					return err
				}
			}
			// Routing policies may carry state (the round-robin cursor), so a
			// pointer-typed policy shared between jobs would race; value-typed
			// policies (LeastLoaded{}) are stateless and freely shareable.
			if pol := cj.Config.Policy; pol != nil && reflect.ValueOf(pol).Kind() == reflect.Pointer {
				if err := claim(i, "routing policy", pol); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ptrOrNil converts a typed nil pointer into an untyped nil so the shared-
// state map never records absent recorders or registries.
func ptrOrNil[T any](p *T) any {
	if p == nil {
		return nil
	}
	return p
}
