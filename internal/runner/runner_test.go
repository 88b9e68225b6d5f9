package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// sweepJobs builds a representative sweep — policies × utilizations ×
// replications — whose seeds are baked in via Gen, mirroring how
// internal/experiments submits cells.
func sweepJobs(n int) []Job {
	policies := []func() sched.Scheduler{
		sched.NewEDF,
		sched.NewSRPT,
		func() sched.Scheduler { return core.New() },
	}
	var jobs []Job
	for _, u := range []float64{0.6, 0.9, 1.1} {
		for _, mk := range policies {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := workload.Default(u, seed).WithWorkflows(4, 1)
				cfg.N = n
				jobs = append(jobs, Job{
					Gen: func(uint64) (*txn.Set, error) { return workload.Generate(cfg) },
					New: mk,
				})
			}
		}
	}
	return jobs
}

// TestParallelBitIdenticalToSerial is the tentpole acceptance criterion: the
// same job slice gathered by Pool{Workers: 1} and Pool{Workers: 8} must be
// deeply identical, including every float64 field, because gathering is in
// job order and each job's seed and workload are independent of scheduling.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	jobs := sweepJobs(120)
	serial, err := Pool{Workers: 1}.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		parallel, err := Pool{Workers: workers}.Run(context.Background(), sweepJobs(120))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("Workers=%d summaries diverge from serial run", workers)
		}
	}
}

// TestDerivedSeedsIndependentOfWorkers: jobs that consume the pool-derived
// seed must see the same seed regardless of worker count or run order.
func TestDerivedSeedsIndependentOfWorkers(t *testing.T) {
	mkJobs := func(seeds []uint64) []Job {
		jobs := make([]Job, len(seeds))
		for i := range jobs {
			slot := i
			jobs[i] = Job{
				Gen: func(seed uint64) (*txn.Set, error) {
					seeds[slot] = seed
					cfg := workload.Default(0.5, seed)
					cfg.N = 20
					return workload.Generate(cfg)
				},
				New: sched.NewFCFS,
			}
		}
		return jobs
	}
	const n = 16
	serialSeeds := make([]uint64, n)
	parallelSeeds := make([]uint64, n)
	serial, err := Pool{Workers: 1, BaseSeed: 42}.Run(context.Background(), mkJobs(serialSeeds))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Pool{Workers: 4, BaseSeed: 42}.Run(context.Background(), mkJobs(parallelSeeds))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialSeeds, parallelSeeds) {
		t.Fatalf("derived seeds depend on worker count:\nserial   %v\nparallel %v", serialSeeds, parallelSeeds)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("summaries diverge despite identical seeds")
	}
	seen := make(map[uint64]bool)
	for _, s := range serialSeeds {
		if seen[s] {
			t.Fatalf("derived seed %d repeats across jobs", s)
		}
		seen[s] = true
	}
}

// TestSeedOverride: an explicit Job.Seed reaches Gen instead of the derived
// seed.
func TestSeedOverride(t *testing.T) {
	want := uint64(0xABCDEF)
	var got uint64
	jobs := []Job{{
		Seed: &want,
		Gen: func(seed uint64) (*txn.Set, error) {
			got = seed
			cfg := workload.Default(0.5, seed)
			cfg.N = 10
			return workload.Generate(cfg)
		},
		New: sched.NewFCFS,
	}}
	if _, err := (Pool{BaseSeed: 1}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Gen saw seed %d, want override %d", got, want)
	}
}

// TestSetCloneIsolation: many jobs backed by the same Set run on private
// clones — the caller's set stays pristine and the runs match regeneration.
func TestSetCloneIsolation(t *testing.T) {
	cfg := workload.Default(1.0, 99).WithWorkflows(5, 1)
	cfg.N = 150
	shared := workload.MustGenerate(cfg)
	pristine := shared.Clone()

	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Set: shared, New: sched.NewEDF}
	}
	summaries, err := Pool{Workers: 4}.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(summaries); i++ {
		if !reflect.DeepEqual(summaries[0], summaries[i]) {
			t.Fatalf("job %d diverged from job 0 on an identical cloned workload", i)
		}
	}
	if !reflect.DeepEqual(pristine.Txns, shared.Txns) {
		t.Fatal("running cloned jobs mutated the caller's shared Set")
	}
}

// TestPostRunsWithPrivateState: Post observes the job's own mutated set and
// summary, and validation hooks work under concurrency.
func TestPostRunsWithPrivateState(t *testing.T) {
	const n = 12
	jobs := make([]Job, n)
	finished := make([]int, n)
	for i := range jobs {
		slot := i
		rec := &trace.Recorder{}
		cfg := workload.Default(0.8, uint64(i+1))
		cfg.N = 50
		jobs[i] = Job{
			Gen:    func(uint64) (*txn.Set, error) { return workload.Generate(cfg) },
			New:    sched.NewSRPT,
			Config: sim.Config{Recorder: rec},
			Post: func(set *txn.Set, summary *metrics.Summary) error {
				if err := rec.Validate(set); err != nil {
					return err
				}
				finished[slot] = summary.N
				return nil
			},
		}
	}
	if _, err := (Pool{Workers: 4}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, f := range finished {
		if f != 50 {
			t.Fatalf("job %d Post saw %d finished transactions, want 50", i, f)
		}
	}
}

// TestFirstErrorWins: when multiple jobs fail, Run reports the
// lowest-indexed recorded failure, wrapped with the job's label.
func TestFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	bad := func(label string) Job {
		return Job{
			Gen:   func(uint64) (*txn.Set, error) { return nil, boom },
			New:   sched.NewFCFS,
			Label: label,
		}
	}
	good := Job{
		Gen: func(uint64) (*txn.Set, error) {
			cfg := workload.Default(0.5, 1)
			cfg.N = 10
			return workload.Generate(cfg)
		},
		New: sched.NewFCFS,
	}
	jobs := []Job{good, bad("first"), good, bad("second")}
	for _, workers := range []int{1, 4} {
		_, err := Pool{Workers: workers}.Run(context.Background(), jobs)
		if err == nil {
			t.Fatalf("Workers=%d: failing jobs returned no error", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("Workers=%d: error %v does not wrap the job's error", workers, err)
		}
		if workers == 1 && !strings.Contains(err.Error(), "job 1 (first)") {
			t.Fatalf("serial error %q should name job 1 (first)", err)
		}
	}
}

// TestContextCancellation: a cancelled context aborts the run with ctx.Err.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Pool{Workers: workers}.Run(ctx, sweepJobs(50))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// TestValidateRejectsMalformedJobs covers the job-shape invariants.
func TestValidateRejectsMalformedJobs(t *testing.T) {
	set := workload.MustGenerate(workload.Default(0.5, 1))
	gen := func(uint64) (*txn.Set, error) { return workload.Generate(workload.Default(0.5, 1)) }
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"neither Set nor Gen", []Job{{New: sched.NewFCFS}}, "exactly one of Set and Gen"},
		{"both Set and Gen", []Job{{Set: set, Gen: gen, New: sched.NewFCFS}}, "exactly one of Set and Gen"},
		{"no scheduler", []Job{{Set: set}}, "no scheduler factory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Pool{}.Run(context.Background(), tc.jobs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejectsSharedObservability: shared recorders, registries and
// comparable sinks across jobs are rejected up front; Discard is exempt.
func TestValidateRejectsSharedObservability(t *testing.T) {
	mk := func(cfg sim.Config) Job {
		return Job{
			Gen:    func(uint64) (*txn.Set, error) { return workload.Generate(workload.Default(0.5, 1)) },
			New:    sched.NewFCFS,
			Config: cfg,
		}
	}
	rec := &trace.Recorder{}
	reg := obs.NewRegistry()
	sink := &obs.Collector{}
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"shared recorder", []Job{mk(sim.Config{Recorder: rec}), mk(sim.Config{Recorder: rec})}, "trace recorder"},
		{"shared registry", []Job{mk(sim.Config{Metrics: reg}), mk(sim.Config{Metrics: reg})}, "metrics registry"},
		{"shared sink", []Job{mk(sim.Config{Sink: sink}), mk(sim.Config{Sink: sink})}, "event sink"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Pool{}.Run(context.Background(), tc.jobs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}

	// Discard is stateless and freely shareable; private state passes.
	ok := []Job{
		mk(sim.Config{Sink: obs.Discard, Recorder: &trace.Recorder{}, Metrics: obs.NewRegistry()}),
		mk(sim.Config{Sink: obs.Discard, Recorder: &trace.Recorder{}, Metrics: obs.NewRegistry()}),
	}
	if _, err := (Pool{}).Run(context.Background(), ok); err != nil {
		t.Fatalf("private observability state rejected: %v", err)
	}
}

// TestPoolHammer runs a large batch repeatedly under the race detector
// (go test -race ./internal/runner) and checks cross-run determinism.
func TestPoolHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	var first []*metrics.Summary
	for round := 0; round < 3; round++ {
		got, err := Pool{Workers: 8, BaseSeed: 7}.Run(context.Background(), sweepJobs(80))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		if !reflect.DeepEqual(first, got) {
			t.Fatalf("round %d diverged from round 0", round)
		}
	}
}
