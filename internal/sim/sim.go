// Package sim implements the RTDBMS discrete-event simulator the paper's
// evaluation runs on (Section IV-A built it in C++; this is the Go
// reproduction). The model is a backend database executing transactions
// under preemptive-resume scheduling — one server in the paper's
// experiments, optionally several identical servers as an extension (a
// replicated web-database backend). The scheduler is consulted only at the
// two event types ASETS* needs — transaction arrival and transaction
// completion — and the chosen transactions run until the next such event.
//
// The entry point is one configuration type and one constructor:
//
//	summary, err := sim.New(sim.Config{Servers: 2}).Run(set, scheduler)
//
// The same Sim also drives closed-loop session workloads
// (Sim.RunClosedLoop), so every run mode shares one validated
// configuration. Both are thin loops over one single-backend event kernel
// (Kernel), which the online executor runs too.
//
// Optional layers extend the paper's fault-free model: a deterministic
// fault injector (Config.Faults) contributes abort/restart, backend
// stall/crash and flash-crowd events, and an admission controller
// (Config.Admit) may shed arrivals before they reach the scheduler (see
// docs/ROBUSTNESS.md). A workload whose transactions carry read/write sets
// (docs/CONTENTION.md) automatically enables commit-time validation:
// aborts become contention-driven — a transaction whose reads were
// overwritten while it ran is rewound and re-executed — replacing the
// injector's random abort draws. All layers are driven purely by simulated
// time and seeded draws, so a fixed seed replays bit-identically; with none
// configured the event loop is byte-for-byte the paper's original model.
package sim

import (
	"fmt"
	"math"

	"repro/internal/admit"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/txn"
)

// Config configures a Sim. The zero value is a valid single-server,
// uninstrumented, fault-free run.
type Config struct {
	// Recorder, when non-nil, receives every execution slice for later
	// validation or visualization (open-loop runs only).
	Recorder *trace.Recorder
	// Servers is the number of identical backend servers (default 1, the
	// paper's model). With S servers the scheduler's S highest-priority
	// transactions run concurrently under global preemptive scheduling.
	// Closed-loop runs support a single server only.
	Servers int
	// Sink, when non-nil, receives the typed decision-event stream
	// (arrivals, dispatches, preemptions, completions, deadline misses,
	// plus policy-internal aging and mode-switch events and — with faults
	// or admission control — abort/restart/stall/shed/degrade events)
	// stamped with simulated time. Nil disables event emission entirely.
	Sink obs.Sink
	// Metrics, when non-nil, accumulates the run's counters and histograms
	// (see docs/OBSERVABILITY.md for the metric taxonomy). Concurrent runs
	// must each use a private registry (docs/PARALLELISM.md).
	Metrics *obs.Registry
	// Faults, when non-nil, is the validated fault plan the run executes: a
	// fresh fault.Injector is built per run, so the same plan subjects
	// every policy to the identical fault schedule. The plan's flash-crowd
	// bursts mutate the set's arrival times in place (idempotently).
	// Open-loop runs only.
	Faults *fault.Plan
	// Admit, when non-nil, is consulted on every arrival; rejected
	// transactions are marked Shed, never reach the scheduler, and are
	// excluded from the summary's tardiness aggregates. Feedback
	// controllers carry state — build a fresh one per run. Open-loop runs
	// only.
	Admit admit.Controller
	// Patience is the closed-loop page-abandonment bound: a page whose
	// render latency exceeds it counts as abandoned (0 disables the
	// bound). Only RunClosedLoop consults it.
	Patience float64
	// SLO, when non-nil, evaluates the run against per-class objectives:
	// the event stream is folded through an slo.Engine whose
	// alert_fire/alert_resolve transitions are injected into Sink in
	// stream order at tumbling-window boundaries, and whose gauges
	// register in Metrics (docs/OBSERVABILITY.md, "SLOs and alerting").
	// Requires a Sink or a Metrics registry to be observable. Open-loop
	// runs only.
	SLO *slo.Config
}

// servers validates and defaults the server count. The validation runs on
// the raw configured value, before defaulting, so Servers: -1 is rejected on
// the same path for every run mode (a regression here once let negative
// counts reach the event loop only because zero happened to default first).
//
//lint:coldpath config validation runs once before the event loop
func (c Config) servers() (int, error) {
	if c.Servers < 0 {
		return 0, fmt.Errorf("sim: servers %d must be positive", c.Servers)
	}
	return max(c.Servers, 1), nil
}

// Sim is a reusable simulation engine bound to one Config. The same Sim may
// execute many workloads sequentially, but it keeps the latest run's SLO
// evaluation (SLOState), so one Sim must not run concurrently with itself.
// Distinct Sims run concurrently as long as they do not share a Config's
// Recorder, Sink or Metrics (see docs/PARALLELISM.md for the isolation
// contract the parallel runner enforces).
type Sim struct {
	cfg Config

	sloState *slo.State // captured after the last Run when cfg.SLO is set
}

// New returns a Sim bound to cfg. Configuration errors (negative server
// counts, invalid fault plans) surface on the first Run, where they can be
// reported per workload.
func New(cfg Config) *Sim {
	return &Sim{cfg: cfg}
}

// SLOState returns the per-class SLO evaluation of the most recent Run, or
// nil when Config.SLO is unset (or before the first Run). The state is the
// engine's final snapshot: alert counts, burn ratios and error-budget
// remainders per class (docs/OBSERVABILITY.md, "SLOs and alerting").
func (e *Sim) SLOState() *slo.State { return e.sloState }

// Run simulates set to completion under scheduler s and returns the
// performance summary. The transactions in set are reset first, so a
// workload can be replayed under many policies. Run drives the Kernel
// open-loop: it walks the set in arrival order.
func (e *Sim) Run(set *txn.Set, s sched.Scheduler) (*metrics.Summary, error) {
	k, err := NewKernel(e.cfg, set, s)
	if err != nil {
		return nil, err
	}
	arr := NewArrivals(set)
	for !k.Finished() {
		at, err := k.Next(arr.Next())
		if err == nil && math.IsInf(at, 1) {
			err = k.Deadlock()
		}
		if err != nil {
			return nil, err
		}
		k.Advance(at)
		arr.Deliver(&k)
	}
	e.sloState = k.Close()
	return k.Summary()
}

// MustRun is Run but panics on error; for examples and benchmarks where a
// failure indicates a bug rather than a recoverable condition.
func (e *Sim) MustRun(set *txn.Set, s sched.Scheduler) *metrics.Summary {
	summary, err := e.Run(set, s)
	if err != nil {
		panic(err)
	}
	return summary
}
