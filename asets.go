// Package repro is a from-scratch Go reproduction of "Adaptive Scheduling of
// Web Transactions" (Guirguis, Sharaf, Chrysanthis, Labrinidis, Pruhs —
// ICDE 2009): the ASETS* family of adaptive transaction schedulers, the
// RTDBMS discrete-event simulator the paper evaluates on, the Table I
// workload generator, every baseline policy, and a harness that regenerates
// each figure of the evaluation.
//
// This root package is the public facade: it re-exports the stable surface
// of the internal packages so downstream users program against one import.
//
// # Quick start
//
//	set := repro.MustGenerate(repro.DefaultWorkload(0.8, 42))
//	summary := repro.MustRun(set, repro.NewASETSStar(), repro.SimConfig{})
//	fmt.Println(summary.AvgTardiness)
//
// See examples/ for complete programs, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the paper-versus-measured record.
package repro

import (
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Model types.
type (
	// Transaction is one web transaction (arrival, deadline, length, weight,
	// dependency list) — Definition 1 of the paper.
	Transaction = txn.Transaction
	// ID identifies a transaction within a workload.
	ID = txn.ID
	// Set is a validated workload of transactions.
	Set = txn.Set
	// Workflow is a dependency-closed scheduling entity.
	Workflow = txn.Workflow
	// Representative is the virtual transaction of Definition 9.
	Representative = txn.Representative
)

// Scheduling types.
type (
	// Scheduler is the simulator-facing policy contract.
	Scheduler = sched.Scheduler
	// ASETSStar is the paper's scheduler; construct via NewASETSStar and
	// friends.
	ASETSStar = core.ASETSStar
	// ASETSOption customizes NewASETSStar.
	ASETSOption = core.Option
)

// Workload and result types.
type (
	// WorkloadConfig parameterizes the Table I generator: plain, workflow
	// and contended workloads all start from DefaultWorkload, chain its
	// With* builders (WithWeights, WithWorkflows, WithContention, ...) and
	// generate through Generate.
	WorkloadConfig = workload.Config
	// Keyspace parameterizes the data-contention model: Zipf-skewed
	// read/write sets over an abstract row space (docs/CONTENTION.md).
	Keyspace = contention.Keyspace
	// Summary aggregates one simulation run (Definitions 3-5 metrics).
	Summary = metrics.Summary
	// SimConfig configures a simulation engine (see NewSim).
	SimConfig = sim.Config
	// Sim is a reusable simulation engine bound to one SimConfig.
	Sim = sim.Sim
	// TraceRecorder records execution slices for validation.
	TraceRecorder = trace.Recorder
	// Figure is a rendered experiment result.
	Figure = report.Figure
	// ExperimentOptions tunes the experiment harness.
	ExperimentOptions = experiments.Options
	// ExperimentResult is a reproduced figure plus paper-versus-measured
	// observations.
	ExperimentResult = experiments.Result
)

// Session and closed-loop types (the introduction's interactive users).
type (
	// Session is one closed-loop user: pages of transactions plus think
	// times.
	Session = txn.Session
	// SessionConfig parameterizes the closed-loop generator.
	SessionConfig = workload.SessionConfig
	// ClosedLoopResult aggregates a closed-loop run (page latencies,
	// abandonment rate).
	ClosedLoopResult = sim.ClosedLoopResult
)

// NewSet validates and wraps transactions into a workload.
func NewSet(txns []*Transaction) (*Set, error) { return txn.NewSet(txns) }

// BuildWorkflows derives one workflow per root transaction (Section II-A).
func BuildWorkflows(s *Set) []*Workflow { return txn.BuildWorkflows(s) }

// CriticalPath returns, per transaction, the longest dependency chain's
// total service time ending at it (inclusive).
func CriticalPath(s *Set) ([]float64, error) { return txn.CriticalPath(s) }

// EarliestFinishTimes returns the structural lower bound on each
// transaction's finish time under any scheduler and server count.
func EarliestFinishTimes(s *Set) ([]float64, error) { return txn.EarliestFinishTimes(s) }

// DefaultSessions returns a closed-loop session workload shaped like
// Table I for the given user population and target utilization.
func DefaultSessions(users int, utilization float64, seed uint64) SessionConfig {
	return workload.DefaultSessions(users, utilization, seed)
}

// GenerateSessions builds the transaction set and sessions for a
// closed-loop run.
func GenerateSessions(cfg SessionConfig) (*Set, []Session, error) {
	return workload.GenerateSessions(cfg)
}

// RunClosedLoop simulates interactive sessions to completion under the
// policy; patience is the page-abandonment bound (0 disables it).
func RunClosedLoop(set *Set, sessions []Session, s Scheduler, patience float64) (*ClosedLoopResult, error) {
	return sim.New(sim.Config{Patience: patience}).RunClosedLoop(set, sessions, s)
}

// DefaultWorkload returns Table I's default configuration at the given
// target utilization.
func DefaultWorkload(utilization float64, seed uint64) WorkloadConfig {
	return workload.Default(utilization, seed)
}

// Generate produces a workload from a configuration.
func Generate(cfg WorkloadConfig) (*Set, error) { return workload.Generate(cfg) }

// MustGenerate is Generate but panics on error.
func MustGenerate(cfg WorkloadConfig) *Set { return workload.MustGenerate(cfg) }

// NewConflictAware wraps any policy with conflict-aware dispatch: the
// wrapper defers queued transactions predicted to conflict with busy work,
// stealing the policy's first non-conflicting candidate instead (window 0
// selects the default probe depth; docs/CONTENTION.md).
func NewConflictAware(inner Scheduler, window int) Scheduler {
	return contention.NewDeferring(inner, window)
}

// NewSim returns a reusable simulation engine bound to cfg:
// NewSim(cfg).Run(set, scheduler) for open-loop runs,
// NewSim(cfg).RunClosedLoop(set, sessions, scheduler) for session replays.
func NewSim(cfg SimConfig) *Sim { return sim.New(cfg) }

// Run simulates the workload to completion under the scheduler and returns
// the performance summary.
func Run(set *Set, s Scheduler, cfg SimConfig) (*Summary, error) { return sim.New(cfg).Run(set, s) }

// MustRun is Run but panics on error.
func MustRun(set *Set, s Scheduler, cfg SimConfig) *Summary { return sim.New(cfg).MustRun(set, s) }

// NewASETSStar constructs the paper's scheduler: the general workflow-level
// weighted policy by default, reducing automatically to transaction-level
// EDF+SRPT on independent unweighted workloads.
func NewASETSStar(opts ...ASETSOption) *ASETSStar { return core.New(opts...) }

// NewReady constructs the Ready baseline of Section III-B (transaction-level
// ASETS* behind a Wait queue).
func NewReady() *ASETSStar { return core.NewReady() }

// WithTimeActivation enables balance-aware aging every 1/rate time units.
func WithTimeActivation(rate float64) ASETSOption { return core.WithTimeActivation(rate) }

// WithCountActivation enables balance-aware aging every 1/rate scheduling
// points.
func WithCountActivation(rate float64) ASETSOption { return core.WithCountActivation(rate) }

// WithSymmetricRule selects the Section III-B prose decision rule instead of
// the Fig. 7 pseudo-code (see DESIGN.md for the discrepancy).
func WithSymmetricRule() ASETSOption { return core.WithRule(core.RuleSymmetric) }

// Baseline policy constructors (Section II-C and related work).
var (
	// NewFCFS is First-Come-First-Served.
	NewFCFS = sched.NewFCFS
	// NewEDF is Earliest-Deadline-First.
	NewEDF = sched.NewEDF
	// NewSRPT is Shortest-Remaining-Processing-Time.
	NewSRPT = sched.NewSRPT
	// NewLS is Least-Slack.
	NewLS = sched.NewLS
	// NewHDF is Highest-Density-First.
	NewHDF = sched.NewHDF
	// NewHVF is Highest-Value-First.
	NewHVF = sched.NewHVF
	// NewMIX is the static deadline/value blend of the related work, at
	// blend 0.5.
	NewMIX = sched.NewMIX
)

// Experiments exposes the per-figure experiment registry keyed by the IDs of
// DESIGN.md's experiment index ("fig8" ... "fig17", "tab1", "alpha", ...).
func Experiments() map[string]func(ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Registry
}

// ExperimentIDs lists the registered experiment IDs in sorted order.
func ExperimentIDs() []string { return experiments.IDs() }
