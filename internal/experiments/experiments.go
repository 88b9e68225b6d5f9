// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (Section IV), plus the extensions and
// ablations indexed in DESIGN.md. Each experiment sweeps a parameter,
// simulates every policy over several seeded workloads (the paper averages
// five runs per setting), validates the resulting schedules, and returns a
// report.Figure whose series mirror the curves in the paper.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Options tunes how experiments run; the zero value is filled with defaults
// matching the paper (five seeds, 1000 transactions, full utilization grid).
type Options struct {
	// Seeds are the workload seeds to average over (paper: five runs).
	Seeds []uint64
	// N overrides the number of transactions per workload (paper: 1000).
	N int
	// Parallelism bounds concurrent simulation workers (runner.Pool.Workers):
	// 0 means GOMAXPROCS, 1 runs the grid's jobs one at a time on the same
	// pool. Results are bit-identical for every value (docs/PARALLELISM.md).
	Parallelism int
	// Validate enables per-run schedule validation via the trace package,
	// for every experiment but Sessions (see its doc comment).
	Validate bool
}

// DefaultSeeds are the five workload seeds used throughout. Only the first
// two are multiples of the golden-ratio increment 0x9e3779b97f4a7c15; the
// last three differ from 3×, 4× and 5× in a few hex digits. They stay as
// they are because every committed figure and golden digest was computed
// from them. Seed lists longer than five continue the exact progression
// from the first (see cmd/asetsbench).
var DefaultSeeds = []uint64{
	0x9e3779b97f4a7c15,
	0x3c6ef372fe94f82a,
	0xdaa66d2c7ddc743f,
	0x78dde6e5fd23f054,
	0x17156069fc6b6c69,
}

func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = DefaultSeeds
	}
	if o.N == 0 {
		o.N = 1000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Policy couples a display name with a scheduler factory. A fresh scheduler
// is constructed for every simulation run, so factories must not share
// mutable state between calls.
type Policy struct {
	Name string
	New  func() sched.Scheduler
}

// UtilizationGrid returns the paper's sweep 0.1, 0.2, ..., 1.0.
func UtilizationGrid() []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i+1) / 10
	}
	return xs
}

// LowUtilizationGrid returns 0.1..0.5 (Figure 8's x-axis).
func LowUtilizationGrid() []float64 { return UtilizationGrid()[:5] }

// HighUtilizationGrid returns 0.6..1.0 (Figure 9's x-axis).
func HighUtilizationGrid() []float64 { return UtilizationGrid()[5:] }

// cell locates one (x-value, policy, seed) simulation on a figure: its
// x-value and policy indexes.
type cell struct {
	xi, pi int
}

// cellRun is one cell's outcome: its summary and the value the grid's post
// hook returned for it.
type cellRun[T any] struct {
	cell
	sum *metrics.Summary
	out T
}

// grid is the one path by which the experiments simulate. It lays out every
// (x, policy, seed) cell, x-major, then policy, then seed, and runs one
// runner.Job per cell on the runner pool at Options.Parallelism. The same
// (x, seed) workload is regenerated per policy, so every policy schedules an
// identical transaction set. policiesAt returns the policy list at x; its
// length must not change across x. Under Options.Validate every job records
// its schedule and checks it with trace.Recorder.ValidateN at the job's
// server count before post runs.
//
// Runs come back in cell order whatever the worker count, so a fold over
// them is bit-identical for any Parallelism — the determinism contract of
// docs/PARALLELISM.md, enforced per experiment by TestParallelismInvisible.
type grid[T any] struct {
	xs         []float64
	policiesAt func(x float64) []Policy
	workload   func(x float64, seed uint64) workload.Config
	// sim, when set, gives the simulation configuration of every cell at x
	// (its server count, say); the grid adds the recorder.
	sim func(x float64) sim.Config
	// record attaches a recorder to every job even without validation, for
	// post hooks that read the schedule.
	record bool
	// post, when set, runs in the worker after each cell's run with the
	// cell's private set and recorder (nil unless recording); its value
	// lands in the cell's cellRun.
	post func(set *txn.Set, rec *trace.Recorder) (T, error)
}

// runJobs submits a grid's jobs to the runner pool. It is a variable so that
// tests can inspect the jobs every experiment builds.
var runJobs = func(workers int, jobs []runner.Job) ([]*metrics.Summary, error) {
	return runner.Pool{Workers: workers}.Run(context.Background(), jobs)
}

// run simulates every cell of the grid and returns the runs in cell order.
func (g grid[T]) run(opts Options) ([]cellRun[T], error) {
	opts = opts.withDefaults()
	policyGrid := make([][]Policy, len(g.xs))
	for i, x := range g.xs {
		policyGrid[i] = g.policiesAt(x)
		if len(policyGrid[i]) != len(policyGrid[0]) {
			return nil, fmt.Errorf("experiments: policiesAt returned %d policies at x=%v but %d at x=%v",
				len(policyGrid[i]), x, len(policyGrid[0]), g.xs[0])
		}
	}

	var runs []cellRun[T]
	var jobs []runner.Job
	for xi, x := range g.xs {
		for pi, policy := range policyGrid[xi] {
			for _, seed := range opts.Seeds {
				cfg := g.workload(x, seed)
				cfg.N = opts.N
				job := runner.Job{
					// The cell's workload seed is baked into cfg; the
					// pool's derived seed is unused.
					Gen:   func(uint64) (*txn.Set, error) { return workload.Generate(cfg) },
					New:   policy.New,
					Label: fmt.Sprintf("x=%v policy=%s seed=%d", x, policy.Name, seed),
				}
				if g.sim != nil {
					job.Config = g.sim(x)
				}
				var rec *trace.Recorder
				if opts.Validate || g.record {
					rec = &trace.Recorder{}
					job.Config.Recorder = rec
				}
				i := len(runs)
				servers := max(job.Config.Servers, 1)
				job.Post = func(set *txn.Set, _ *metrics.Summary) error {
					if opts.Validate {
						if err := rec.ValidateN(set, servers); err != nil {
							return err
						}
					}
					if g.post == nil {
						return nil
					}
					var err error
					runs[i].out, err = g.post(set, rec)
					return err
				}
				runs = append(runs, cellRun[T]{cell: cell{xi: xi, pi: pi}})
				jobs = append(jobs, job)
			}
		}
	}
	sums, err := runJobs(opts.Parallelism, jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for i := range runs {
		runs[i].sum = sums[i]
	}
	return runs, nil
}

// seedMeans folds one value per run into per-[policy][x] means over the
// seeds: it sums in cell order, then divides. (The figure path folds into
// Welford streams instead; the two associate differently.)
func seedMeans[T any](runs []cellRun[T], nPolicies, nX, nSeeds int, val func(cellRun[T]) float64) [][]float64 {
	means := make([][]float64, nPolicies)
	for pi := range means {
		means[pi] = make([]float64, nX)
	}
	for _, r := range runs {
		means[r.pi][r.xi] += val(r)
	}
	for pi := range means {
		for xi := range means[pi] {
			means[pi][xi] /= float64(nSeeds)
		}
	}
	return means
}

// sweepResult holds per-(policy, x) statistics across seeds for every metric
// the figures consume.
type sweepResult struct {
	// indexed [policy][x]
	avgTardiness [][]*metrics.Stream
	avgWeighted  [][]*metrics.Stream
	maxWeighted  [][]*metrics.Stream
	missRatio    [][]*metrics.Stream
	avgResponse  [][]*metrics.Stream
	realizedUtil [][]*metrics.Stream
	maxTardiness [][]*metrics.Stream
}

func newSweepResult(nPolicies, nX int) *sweepResult {
	alloc := func() [][]*metrics.Stream {
		out := make([][]*metrics.Stream, nPolicies)
		for p := range out {
			out[p] = make([]*metrics.Stream, nX)
			for x := range out[p] {
				out[p][x] = &metrics.Stream{}
			}
		}
		return out
	}
	return &sweepResult{
		avgTardiness: alloc(),
		avgWeighted:  alloc(),
		maxWeighted:  alloc(),
		missRatio:    alloc(),
		avgResponse:  alloc(),
		realizedUtil: alloc(),
		maxTardiness: alloc(),
	}
}

// sweep is the figure path: it runs the grid of policiesAt × xs × seeds over
// the workloads makeCfg builds and folds every cell's summary into the
// per-(policy, x) Welford streams the figures read. Most figures use a fixed
// policy list, while the balance-aware sweeps vary the activation rate with
// x. The figures are bit-identical for any Parallelism, which
// TestParallelismInvisible enforces on fig14.
func sweep(opts Options, xs []float64, policiesAt func(x float64) []Policy, makeCfg func(x float64, seed uint64) workload.Config) (*sweepResult, error) {
	runs, err := grid[struct{}]{xs: xs, policiesAt: policiesAt, workload: makeCfg}.run(opts)
	if err != nil {
		return nil, err
	}
	res := newSweepResult(len(policiesAt(xs[0])), len(xs))
	for _, r := range runs {
		res.avgTardiness[r.pi][r.xi].Add(r.sum.AvgTardiness)
		res.avgWeighted[r.pi][r.xi].Add(r.sum.AvgWeightedTardiness)
		res.maxWeighted[r.pi][r.xi].Add(r.sum.MaxWeightedTardiness)
		res.missRatio[r.pi][r.xi].Add(r.sum.MissRatio)
		res.avgResponse[r.pi][r.xi].Add(r.sum.AvgResponseTime)
		res.realizedUtil[r.pi][r.xi].Add(r.sum.Utilization)
		res.maxTardiness[r.pi][r.xi].Add(r.sum.MaxTardiness)
	}
	return res, nil
}

// means extracts the per-x means (and 95% CIs) of one metric row.
func means(row []*metrics.Stream) (ys, errs []float64) {
	ys = make([]float64, len(row))
	errs = make([]float64, len(row))
	for i, s := range row {
		ys[i] = s.Mean()
		errs[i] = s.CI95()
	}
	return ys, errs
}

// ratios divides numerator means by denominator means pointwise, mapping
// 0/0 to 1 (both policies achieved zero tardiness, i.e. parity).
func ratios(num, den []*metrics.Stream) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		n, d := num[i].Mean(), den[i].Mean()
		switch {
		case d == 0 && n == 0:
			out[i] = 1
		case d == 0:
			out[i] = 0 // denominator policy was perfect; flag dominance
		default:
			out[i] = n / d
		}
	}
	return out
}

// Crossover returns the first x at which series b drops strictly below
// series a (e.g. where SRPT overtakes EDF), or -1 when it never does.
func Crossover(xs, a, b []float64) float64 {
	for i := range xs {
		if b[i] < a[i] {
			return xs[i]
		}
	}
	return -1
}

// Registry maps experiment IDs (DESIGN.md's per-experiment index) to their
// runners, so the CLI and tests can enumerate them.
var Registry = map[string]func(Options) (*Result, error){
	"fig8":       Fig8,
	"fig9":       Fig9,
	"fig10":      Fig10,
	"fig11":      Fig11,
	"fig12":      Fig12,
	"fig13":      Fig13,
	"fig14":      Fig14,
	"fig15":      Fig15,
	"fig16":      Fig16,
	"fig17":      Fig17,
	"tab1":       Table1,
	"alpha":      AlphaSweep,
	"abl-rule":   AblationRule,
	"abl-count":  AblationCountBalance,
	"wf-len":     WorkflowLengthSweep,
	"wf-mem":     WorkflowMembershipSweep,
	"dep-split":  DependentBreakdown,
	"abl-rep":    AblationRepScope,
	"fig15x":     Fig15Extended,
	"domino":     Domino,
	"mserver":    MultiServer,
	"sessions":   Sessions,
	"cache":      Cache,
	"structural": Structural,
	"hitratio":   HitRatio,
	"burst":      Burst,
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	//lint:ignore maprange collected IDs are sorted immediately below
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
